(* Sans-IO component outputs.

   Components never touch sockets: handling a message or a tick returns a
   list of outputs, and a driver (simulated or Unix) performs them.  The
   same component code therefore runs inside the discrete-event simulator
   and on real sockets. *)

type address = { host : string; port : int }

type t =
  | Udp of { dst : address; data : string }
      (* one unreliable datagram *)
  | Stream of { dst : address; data : string }
      (* reliable ordered bytes (TCP); frames are self-delimiting *)

let udp ~host ~port data = Udp { dst = { host; port }; data }

let stream ~host ~port data = Stream { dst = { host; port }; data }
