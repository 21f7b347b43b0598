(* UDP endpoint, read on a daemon's event loop ([serve]) or by a client
   waiting for a reply ([recv_timeout], [recv]); senders may call from
   any thread (sendto is atomic per datagram). *)

(* [read_set] is [select]'s read set, built once with the socket. *)
type t = { socket : Unix.file_descr; read_set : Unix.file_descr list }

let max_datagram = 65536

let stop t = try Unix.close t.socket with Unix.Unix_error (_, _, _) -> ()

(* A socket whose bind fails is closed before the error propagates. *)
let bind_port ?(addr = Unix.inet_addr_any) port =
  let socket = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  let t = { socket; read_set = [ socket ] } in
  match
    Unix.setsockopt socket Unix.SO_REUSEADDR true;
    Unix.bind socket (Unix.ADDR_INET (addr, port))
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
   receive concurrently, so [recv_lock] guards the buffer across the
   receive and the copy out. *)
let recv_buf = Bytes.create max_datagram

let recv_lock = Mutex.create ()

(* The datagram [select] found waiting, and its sender.  [take_from]
   and [take] release [recv_lock] on every exit, as [Mutex.protect]
   would, without its closure.  [None] stands for an empty datagram or
   a failed receive, an interrupted one included. *)
let take_from t =
  Mutex.lock recv_lock;
  match Unix.recvfrom t.socket recv_buf 0 max_datagram [] with
  | n, from when n > 0 ->
    let data = Bytes.sub_string recv_buf 0 n in
    Mutex.unlock recv_lock;
    Some (from, data)
  | _ | (exception Unix.Unix_error (_, _, _)) ->
    Mutex.unlock recv_lock;
    None
  | exception e ->
    Mutex.unlock recv_lock;
    raise e

(* The datagram alone: [recv] reads no sender sockaddr. *)
let take t =
  Mutex.lock recv_lock;
  match Unix.recv t.socket recv_buf 0 max_datagram [] with
  | n when n > 0 ->
    let data = Bytes.sub_string recv_buf 0 n in
    Mutex.unlock recv_lock;
    Some data
  | _ | (exception Unix.Unix_error (_, _, _)) ->
    Mutex.unlock recv_lock;
    None
  | exception e ->
    Mutex.unlock recv_lock;
    raise e

(* What [take] reads from the next non-empty datagram before [deadline],
   waiting at most [timeout] for the first.  An empty datagram, a failed
   receive and a signal that interrupts [select] all resume the wait for
   what is left of the window. *)
let rec wait take t ~deadline ~timeout =
  match Unix.select t.read_set [] [] timeout with
  | [], _, _ -> None
  | _ ->
    (match take t with
    | Some _ as datagram -> datagram
    | None -> resume take t ~deadline)
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> resume take t ~deadline

and resume take t ~deadline =
  wait take t ~deadline
    ~timeout:(Float.max 0.0 (deadline -. Unix.gettimeofday ()))

let recv_timeout t ~timeout =
  wait take_from t ~deadline:(Unix.gettimeofday () +. timeout) ~timeout

let recv t ~timeout =
  wait take t ~deadline:(Unix.gettimeofday () +. timeout) ~timeout

(* Every datagram already waiting, read and dropped without a copy. *)
let rec drain t =
  match Unix.select t.read_set [] [] 0.0 with
  | [], _, _ -> ()
  | _ ->
    Mutex.lock recv_lock;
    (match Unix.recv t.socket recv_buf 0 max_datagram [] with
    | _ | (exception Unix.Unix_error (_, _, _)) -> Mutex.unlock recv_lock
    | exception e ->
      Mutex.unlock recv_lock;
      raise e);
    drain t
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain t
