(* UDP endpoint with a background receive thread.  Handlers run on the
   receiver thread; senders may call from any thread (sendto is atomic
   per datagram). *)

type t = {
  socket : Unix.file_descr;
  port : int;
  mutable running : bool;
  mutable thread : Thread.t option;
}

let max_datagram = 65536

let bind_port ?(addr = Unix.inet_addr_loopback) port =
  let socket = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Unix.setsockopt socket Unix.SO_REUSEADDR true;
  Unix.bind socket (Unix.ADDR_INET (addr, port));
  let port =
    match Unix.getsockname socket with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> port
  in
  { socket; port; running = false; thread = None }

let port t = t.port

(* Start the receive loop; [handler] gets (sender, payload). *)
let start t handler =
  if t.running then invalid_arg "Udp_io.start: already running";
  t.running <- true;
  let buf = Bytes.create max_datagram in
  let loop () =
    while t.running do
      match Unix.recvfrom t.socket buf 0 max_datagram [] with
      | n, from when n > 0 -> handler ~from (Bytes.sub_string buf 0 n)
      | _ -> ()
      | exception Unix.Unix_error ((Unix.EBADF | Unix.EINTR), _, _) -> ()
      | exception Unix.Unix_error (_, _, _) -> ()
    done
  in
  t.thread <- Some (Thread.create loop ())

let send t ~to_ data =
  try
    ignore
      (Unix.sendto_substring t.socket data 0 (String.length data) [] to_);
    true
  with Unix.Unix_error (_, _, _) -> false

let answer_scrape t ~metrics ~trace ~from data =
  match Smart_proto.Metrics_msg.decode_request data with
  | Some format ->
    ignore
      (send t ~to_:from (Smart_proto.Metrics_msg.encode_reply format metrics));
    true
  | None ->
    (match Smart_proto.Trace_msg.decode_request data with
    | Some format ->
      ignore
        (send t ~to_:from (Smart_proto.Trace_msg.encode_reply format trace));
      true
    | None -> false)

let stop t =
  if t.running then begin
    t.running <- false;
    (* unblock the receiver with a datagram to ourselves *)
    (try
       let self = Unix.ADDR_INET (Unix.inet_addr_loopback, t.port) in
       ignore (send t ~to_:self "")
     with _ -> ());
    (match t.thread with Some th -> Thread.join th | None -> ());
    t.thread <- None
  end;
  try Unix.close t.socket with Unix.Unix_error (_, _, _) -> ()

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
