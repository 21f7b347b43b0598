(* UDP endpoint, read on a daemon's event loop ([serve]) or by a client
   waiting for one reply ([recv_timeout]); senders may call from any
   thread (sendto is atomic per datagram). *)

type t = { socket : Unix.file_descr }

let max_datagram = 65536

let stop t = try Unix.close t.socket with Unix.Unix_error (_, _, _) -> ()

(* A socket whose bind fails is closed before the error propagates. *)
let bind_port ?(addr = Unix.inet_addr_any) port =
  let t = { socket = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 } in
  match
    Unix.setsockopt t.socket Unix.SO_REUSEADDR true;
    Unix.bind t.socket (Unix.ADDR_INET (addr, port))
  with
  | () -> t
  | exception e ->
    stop t;
    raise e

(* One buffer per served socket: only the loop's thread reads it. *)
let serve loop t handler =
  let buf = Bytes.create max_datagram in
  Loop.add loop t.socket (fun ~now ->
      match Unix.recvfrom t.socket buf 0 max_datagram [] with
      | n, from -> handler ~now ~from (Bytes.sub_string buf 0 n)
      | exception Unix.Unix_error (_, _, _) -> ())

let send t ~to_ data =
  try
    ignore
      (Unix.sendto_substring t.socket data 0 (String.length data) [] to_);
    true
  with Unix.Unix_error (_, _, _) -> false

(* One receive buffer for the whole process, allocated when the module
   initialises.  Client sockets live for one call, so a buffer per
   socket (or per call) would cost a 64 KB major-heap allocation every
   time; client threads may receive concurrently, so [recv_lock] guards
   it across [recvfrom] and the copy out. *)
let recv_buf = Bytes.create max_datagram

let recv_lock = Mutex.create ()

(* Blocking receive with timeout on a one-shot socket (client side). *)
let recv_timeout t ~timeout =
  let readable, _, _ = Unix.select [ t.socket ] [] [] timeout in
  match readable with
  | [] -> None
  | _ ->
    Mutex.protect recv_lock (fun () ->
        match Unix.recvfrom t.socket recv_buf 0 max_datagram [] with
        | n, from when n > 0 -> Some (from, Bytes.sub_string recv_buf 0 n)
        | _ -> None
        | exception Unix.Unix_error (_, _, _) -> None)
