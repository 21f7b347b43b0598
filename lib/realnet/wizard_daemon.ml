(* Real-socket wizard machine: the receiver's TCP accept loop feeds the
   frame decoder; the wizard's UDP loop answers user requests directly to
   the requesting sockaddr. *)

type config = {
  host : string;  (* logical name of the wizard machine *)
  mode : Smart_core.Wizard.mode;
  staleness_threshold : float;  (* receiver silence before degraded replies *)
  admission : Smart_core.Wizard.admission option;
      (* per-requester-IP token buckets on the request port; None =
         ungated *)
}

type t = {
  config : config;
  book : Addr_book.t;
  db : Smart_core.Status_db.t;
  metrics : Smart_util.Metrics.t;
  tracelog : Smart_util.Tracelog.t;
  receiver : Smart_core.Receiver.t;
  wizard : Smart_core.Wizard.t;
  listen_socket : Unix.file_descr;
  request_socket : Udp_io.t;
  out_socket : Udp_io.t;
  mutable running : bool;
  mutable threads : Thread.t list;
  mutex : Mutex.t;  (* guards receiver/wizard/db across threads *)
}

let create book (config : config) =
  let db = Smart_core.Status_db.create () in
  let metrics = Smart_util.Metrics.create () in
  (* flight recorder: a small ring of recent spans on the wall clock,
     dumped on demand by SMART-TRACE scrapes *)
  let tracelog =
    Smart_util.Tracelog.create ~capacity:256 ~clock:Unix.gettimeofday ()
  in
  let receiver =
    Smart_core.Receiver.create ~metrics ~trace:tracelog
      ~order:Smart_proto.Endian.Little db
  in
  let wizard = Smart_core.Wizard.create ~metrics ~trace:tracelog
      ~clock:Unix.gettimeofday
      ~staleness_threshold:config.staleness_threshold
      ?admission:config.admission
      { Smart_core.Wizard.mode = config.mode; groups = None }
      db in
  Smart_core.Receiver.set_update_hook receiver
    (Some (fun _ -> Smart_core.Wizard.note_update wizard));
  let shift = Addr_book.port_shift book ~host:config.host in
  let listen_socket = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen_socket Unix.SO_REUSEADDR true;
  Unix.bind listen_socket
    (Unix.ADDR_INET (Unix.inet_addr_loopback, Smart_proto.Ports.receiver + shift));
  Unix.listen listen_socket 16;
  {
    config;
    book;
    db;
    metrics;
    tracelog;
    receiver;
    wizard;
    listen_socket;
    request_socket = Udp_io.bind_port (Smart_proto.Ports.wizard + shift);
    out_socket = Udp_io.bind_port 0;
    running = false;
    threads = [];
    mutex = Mutex.create ();
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let sockaddr_tag = function
  | Unix.ADDR_INET (addr, port) ->
    Printf.sprintf "%s:%d" (Unix.string_of_inet_addr addr) port
  | Unix.ADDR_UNIX path -> path

(* Drain one transmitter connection into the receiver. *)
let serve_connection t client peer =
  let tag = sockaddr_tag peer in
  let buf = Bytes.create 65536 in
  let rec go () =
    match Unix.read client buf 0 (Bytes.length buf) with
    | 0 -> ()
    | n ->
      locked t (fun () ->
          ignore
            (Smart_core.Receiver.handle_stream t.receiver ~from:tag
               (Bytes.sub_string buf 0 n)));
      go ()
    | exception Unix.Unix_error (_, _, _) -> ()
  in
  go ();
  locked t (fun () -> Smart_core.Receiver.forget_source t.receiver ~from:tag);
  (try Unix.close client with Unix.Unix_error (_, _, _) -> ())

(* How the wizard sees a requester: its IP literal and port, so
   admission buckets key on the requester's IP.  The address book
   resolves the literal to itself, so replies (deferred distributed-mode
   ones included) go out through [Perform] like the pull requests to
   transmitters. *)
let requester = function
  | Unix.ADDR_INET (addr, port) ->
    { Smart_core.Output.host = Unix.string_of_inet_addr addr; port }
  | Unix.ADDR_UNIX path -> { Smart_core.Output.host = path; port = 0 }

let start t =
  if t.running then invalid_arg "Wizard_daemon.start: already running";
  t.running <- true;
  (* receiver accept loop *)
  let accept_loop () =
    while t.running do
      match Unix.accept t.listen_socket with
      | client, peer ->
        ignore (Thread.create (fun () -> serve_connection t client peer) ())
      | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL | Unix.EINTR), _, _)
        ->
        ()
    done
  in
  (* request loop *)
  Udp_io.start t.request_socket (fun ~from data ->
      if
        (not
           (Udp_io.answer_scrape t.request_socket ~metrics:t.metrics
              ~trace:t.tracelog ~from data))
        && not (String.equal data "")
      then begin
        let outputs =
          locked t (fun () ->
              Smart_core.Wizard.handle_request t.wizard
                ~now:(Unix.gettimeofday ()) ~from:(requester from) data)
        in
        Perform.outputs t.book ~udp:t.out_socket outputs
      end);
  (* distributed-mode pending flush *)
  let tick_loop () =
    while t.running do
      let outputs =
        locked t (fun () ->
            Smart_core.Wizard.tick t.wizard ~now:(Unix.gettimeofday ()))
      in
      Perform.outputs t.book ~udp:t.out_socket outputs;
      Thread.delay 0.05
    done
  in
  t.threads <- [ Thread.create accept_loop (); Thread.create tick_loop () ]

let stop t =
  t.running <- false;
  (* unblock accept *)
  (try
     let port =
       match Unix.getsockname t.listen_socket with
       | Unix.ADDR_INET (_, p) -> p
       | Unix.ADDR_UNIX _ -> 0
     in
     if port > 0 then begin
       let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
       (try Unix.connect s (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
        with Unix.Unix_error (_, _, _) -> ());
       Unix.close s
     end
   with Unix.Unix_error (_, _, _) -> ());
  List.iter Thread.join t.threads;
  t.threads <- [];
  (try Unix.close t.listen_socket with Unix.Unix_error (_, _, _) -> ());
  Udp_io.stop t.request_socket;
  Udp_io.stop t.out_socket

let db t = t.db

let wizard t = t.wizard

let metrics t = t.metrics

let tracelog t = t.tracelog
