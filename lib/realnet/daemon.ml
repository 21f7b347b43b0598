(* The real-socket installer of a role description: one event loop over
   the role's ports and timers, as the simulator's installer puts the
   same description on the packet plane. *)

module Role = Smart_core.Role
module Output = Smart_core.Output

(* A daemon's own registry and a small ring of recent spans on the wall
   clock, dumped on demand by SMART-TRACE scrapes. *)
let env () =
  {
    Role.metrics = Smart_util.Metrics.create ();
    trace = Smart_util.Tracelog.create ~capacity:256 ~clock:Unix.gettimeofday ();
    clock = Unix.gettimeofday;
  }

let close_quietly fd = try Unix.close fd with Unix.Unix_error (_, _, _) -> ()

(* A stream's source tag: the connection's peer address. *)
let sockaddr_tag = function
  | Unix.ADDR_INET (addr, port) ->
    Printf.sprintf "%s:%d" (Unix.string_of_inet_addr addr) port
  | Unix.ADDR_UNIX path -> path

(* How a component sees a datagram's sender: its IP literal and port, so
   admission buckets key on the requester's IP, and the pinned book
   resolves the literal to itself for the reply. *)
let requester = function
  | Unix.ADDR_INET (addr, port) ->
    { Output.host = Unix.string_of_inet_addr addr; port }
  | Unix.ADDR_UNIX path -> { Output.host = path; port = 0 }

let listen addr port =
  let socket = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match
    Unix.setsockopt socket Unix.SO_REUSEADDR true;
    Unix.bind socket (Unix.ADDR_INET (addr, port));
    Unix.listen socket 16
  with
  | () -> socket
  | exception e ->
    close_quietly socket;
    raise e

(* One transmitter connection: its bytes feed the receiver's decoder for
   that peer, and EOF or a reset forgets the peer's stream state. *)
let serve_connection loop receiver client peer =
  let from = sockaddr_tag peer and chunk = Bytes.create 65536 in
  let eof () =
    Smart_core.Receiver.forget_source receiver ~from;
    Loop.remove loop client
  in
  Loop.add loop client (fun ~now:_ ->
      match Unix.read client chunk 0 (Bytes.length chunk) with
      | 0 -> eof ()
      | n ->
        ignore
          (Smart_core.Receiver.handle_stream receiver ~from
             (Bytes.sub_string chunk 0 n))
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        ()
      | exception Unix.Unix_error (_, _, _) -> eof ())

let install book ~host (role : _ Role.t) =
  let addr = Addr_book.bind_addr book ~host
  and shift = Addr_book.port_shift book ~host
  and book = Addr_book.pin book ~hosts:role.peers in
  let loop = Loop.create () in
  (* every port is bound before any is served; a bind that fails closes
     the sockets bound before it *)
  let bound = ref [] in
  let datagram_ports =
    try
      List.filter_map
        (fun (port : Role.port) ->
          match port.handler with
          | Role.Datagram handle ->
            let socket = Udp_io.bind_port ~addr (port.number + shift) in
            bound := socket :: !bound;
            Some (port, handle, socket)
          | Role.Stream receiver ->
            let listener = listen addr (port.number + shift) in
            Loop.add loop listener (fun ~now:_ ->
                match Unix.accept listener with
                | client, peer -> serve_connection loop receiver client peer
                | exception Unix.Unix_error (_, _, _) -> ());
            None)
        role.ports
    with e ->
      List.iter Udp_io.stop !bound;
      Loop.stop loop;
      raise e
  in
  let socket number =
    List.find_map
      (fun ((port : Role.port), _, socket) ->
        if port.number = number then Some socket else None)
      datagram_ports
  in
  (* each sink's outputs leave from the socket of its port, or of the
     scrape port; a failed stream reports the time it gave up *)
  let hooks (sink : Role.sink) =
    let udp =
      match socket sink.sport with
      | Some udp -> udp
      | None -> Option.get (socket role.scrape_port)
    in
    match sink.transmitter with
    | None -> (udp, (fun ~data:_ -> ()), ignore)
    | Some transmitter ->
      ( udp,
        (fun ~data ->
          Smart_core.Transmitter.note_send_failure transmitter
            ~now:(Unix.gettimeofday ()) ~data),
        fun () -> Smart_core.Transmitter.note_send_ok transmitter )
  in
  (* a datagram's sender reaches its handler as [requester from], and a
     reply addressed to that record goes back to [from] itself *)
  List.iter
    (fun ((port : Role.port), handle, socket) ->
      let udp, on_stream_failure, on_stream_ok = hooks port.sink in
      let answer ~now ~from data =
        let requester = requester from in
        Perform.replies book ~udp ~requester ~from ~on_stream_failure
          ~on_stream_ok (handle ~now ~from:requester data)
      in
      if port.number = role.scrape_port then
        Udp_io.serve loop socket (fun ~now ~from data ->
            match Role.scrape role data with
            | Some dump -> ignore (Udp_io.send socket ~to_:from dump)
            | None -> answer ~now ~from data)
      else Udp_io.serve loop socket answer)
    datagram_ports;
  List.iter
    (fun (timer : Role.timer) ->
      let udp, on_stream_failure, on_stream_ok = hooks timer.sink in
      Loop.every loop ~armed:timer.armed ~offset:timer.offset
        ~period:timer.period (fun ~now ->
          Perform.outputs ~on_stream_failure ~on_stream_ok book ~udp
            (timer.fire ~now)))
    role.timers;
  (loop, book)
