(* UDP endpoint, read on a daemon's event loop ([serve]) or by a client
   waiting for a reply ([recv_timeout]); senders may call from any
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
   initialises.  Scrape and echo-probe sockets live for one call, so a
   buffer per socket would cost a 64 KB major-heap allocation every
   time; a client's kept endpoints (Client_io) live for the process, but
   a buffer each would still count in its live heap.  Client threads may
   receive concurrently, so [recv_lock] guards the buffer across
   [recvfrom] and the copy out. *)
let recv_buf = Bytes.create max_datagram

let recv_lock = Mutex.create ()

(* The next non-empty datagram, or [None] at [timeout] (client side).  An
   empty datagram or a failed [recvfrom] is skipped: the wait goes on
   for what is left of [timeout]. *)
let rec recv_timeout t ~timeout =
  let start = Unix.gettimeofday () in
  match Unix.select [ t.socket ] [] [] timeout with
  | [], _, _ -> None
  | _ ->
    (match
       Mutex.protect recv_lock (fun () ->
           match Unix.recvfrom t.socket recv_buf 0 max_datagram [] with
           | n, from when n > 0 -> Some (from, Bytes.sub_string recv_buf 0 n)
           | _ -> None
           | exception Unix.Unix_error (_, _, _) -> None)
     with
    | Some _ as datagram -> datagram
    | None ->
      recv_timeout t
        ~timeout:(Float.max 0.0 (timeout -. (Unix.gettimeofday () -. start))))
