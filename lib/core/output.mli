(** Sans-IO component outputs: components return these instead of
    touching sockets; a driver (simulated or Unix) performs them. *)

type address = { host : string; port : int }

type t =
  | Udp of { dst : address; data : string }
      (** one unreliable datagram *)
  | Stream of { dst : address; data : string }
      (** reliable ordered bytes (TCP); frames are self-delimiting *)

val udp : host:string -> port:int -> string -> t

val stream : host:string -> port:int -> string -> t
