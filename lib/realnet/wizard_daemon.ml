(* Real-socket wizard machine on one event loop: the receiver's TCP
   connections feed the frame decoder; the wizard's UDP socket answers
   user requests directly to the requesting sockaddr. *)

type config = {
  host : string;  (* logical name of the wizard machine *)
  mode : Smart_core.Wizard.mode;
  staleness_threshold : float;  (* receiver silence before degraded replies *)
  admission : Smart_core.Wizard.admission option;
      (* per-requester-IP token buckets on the request port; None =
         ungated *)
}

type t = {
  db : Smart_core.Status_db.t;
  wizard : Smart_core.Wizard.t;
  loop : Loop.t;
}

let sockaddr_tag = function
  | Unix.ADDR_INET (addr, port) ->
    Printf.sprintf "%s:%d" (Unix.string_of_inet_addr addr) port
  | Unix.ADDR_UNIX path -> path

(* How the wizard sees a requester: its IP literal and port, so
   admission buckets key on the requester's IP.  The address book
   resolves the literal to itself, so replies (deferred distributed-mode
   ones included) go out through [Perform] like the pull requests to
   transmitters. *)
let requester = function
  | Unix.ADDR_INET (addr, port) ->
    { Smart_core.Output.host = Unix.string_of_inet_addr addr; port }
  | Unix.ADDR_UNIX path -> { Smart_core.Output.host = path; port = 0 }

(* One transmitter connection: its bytes feed the receiver's decoder for
   that peer, and EOF or a reset forgets the peer's stream state. *)
let serve_connection loop receiver client peer =
  let from = sockaddr_tag peer and chunk = Bytes.create 65536 in
  let close () =
    Smart_core.Receiver.forget_source receiver ~from;
    Loop.remove loop client
  in
  Loop.add loop client (fun ~now:_ ->
      match Unix.read client chunk 0 (Bytes.length chunk) with
      | 0 -> close ()
      | n ->
        ignore
          (Smart_core.Receiver.handle_stream receiver ~from
             (Bytes.sub_string chunk 0 n))
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        ()
      | exception Unix.Unix_error (_, _, _) -> close ())

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
  let request_socket = Udp_io.bind_port (Smart_proto.Ports.wizard + shift) in
  let loop = Loop.create () in
  let perform outputs = Perform.outputs book ~udp:request_socket outputs in
  Udp_io.serve loop request_socket (fun ~now ~from data ->
      if
        not
          (Udp_io.answer_scrape request_socket ~metrics ~trace:tracelog ~from
             data)
      then
        perform
          (Smart_core.Wizard.handle_request wizard ~now ~from:(requester from)
             data));
  Loop.add loop listen_socket (fun ~now:_ ->
      match Unix.accept listen_socket with
      | client, peer -> serve_connection loop receiver client peer
      | exception Unix.Unix_error (_, _, _) -> ());
  (* distributed-mode pending flush and admission's delayed releases:
     only a parked request needs the tick *)
  let parked () =
    Smart_core.Wizard.(pending_count wizard + delayed_count wizard) > 0
  in
  Loop.every ~armed:parked loop 0.05 (fun ~now ->
      perform (Smart_core.Wizard.tick wizard ~now));
  { db; wizard; loop }

let start t = Loop.start t.loop

let stop t = Loop.stop t.loop

let db t = t.db

let wizard t = t.wizard
