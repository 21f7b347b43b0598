(* Real-socket monitor machine on one event loop: system monitor (UDP),
   security monitor (log file), network monitor (UDP echo probing of the
   servers' probe daemons), and the transmitter (periodic TCP push, or
   pull-driven in distributed mode). *)

type config = {
  host : string;              (* logical name of the monitor machine *)
  wizard_host : string;
  mode : Smart_core.Transmitter.mode;
  probe_interval : float;     (* expected probe reporting period *)
  transmit_interval : float;
  netmon_targets : string list;
  security_log : string;      (* contents, "" for none *)
}

type t = {
  config : config;
  book : Addr_book.t;
  netmon : Smart_core.Netmon.t;
  loop : Loop.t;
}

let create book (config : config) =
  let db = Smart_core.Status_db.create () in
  let metrics = Smart_util.Metrics.create () in
  (* flight recorder: a small ring of recent spans on the wall clock,
     dumped on demand by SMART-TRACE scrapes *)
  let tracelog =
    Smart_util.Tracelog.create ~capacity:256 ~clock:Unix.gettimeofday ()
  in
  let sysmon =
    Smart_core.Sysmon.create
      ~config:
        {
          Smart_core.Sysmon.default_config with
          probe_interval = config.probe_interval;
          missed_intervals = 3;
        }
      ~metrics ~trace:tracelog db
  in
  let secmon = Smart_core.Secmon.create ~metrics ~trace:tracelog db in
  if not (String.equal config.security_log "") then
    ignore (Smart_core.Secmon.refresh_from_log secmon config.security_log);
  let netmon =
    Smart_core.Netmon.create ~metrics ~trace:tracelog
      {
        Smart_core.Netmon.monitor_name = config.host;
        targets = config.netmon_targets;
      }
      db
  in
  let transmitter =
    Smart_core.Transmitter.create ~metrics ~trace:tracelog
      ~monitor_name:config.host
      {
        Smart_core.Transmitter.mode = config.mode;
        order = Smart_proto.Endian.Little;
        receiver =
          {
            Smart_core.Output.host = config.wizard_host;
            port = Smart_proto.Ports.receiver;
          };
      }
      db
  in
  let shift = Addr_book.port_shift book ~host:config.host in
  let sys_socket = Udp_io.bind_port (Smart_proto.Ports.sysmon + shift) in
  let pull_socket = Udp_io.bind_port (Smart_proto.Ports.transmitter + shift) in
  let loop = Loop.create () in
  (* Execute transmitter outputs with the resilience hooks wired: a
     failed TCP push lands in the transmitter's bounded resend queue (and
     arms its backoff), a successful one resets it. *)
  let perform outputs =
    Perform.outputs book ~udp:pull_socket outputs
      ~on_stream_failure:(fun ~data ->
        Smart_core.Transmitter.note_send_failure transmitter
          ~now:(Unix.gettimeofday ()) ~data)
      ~on_stream_ok:(fun () -> Smart_core.Transmitter.note_send_ok transmitter)
  in
  Udp_io.serve loop sys_socket (fun ~now ~from:_ data ->
      ignore (Smart_core.Sysmon.handle_report sysmon ~now data));
  Udp_io.serve loop pull_socket (fun ~now:_ ~from data ->
      if
        not
          (Udp_io.answer_scrape pull_socket ~metrics ~trace:tracelog ~from data)
      then perform (Smart_core.Transmitter.handle_pull transmitter ~data));
  Loop.every loop config.transmit_interval (fun ~now ->
      ignore (Smart_core.Sysmon.sweep sysmon ~now);
      perform (Smart_core.Transmitter.tick transmitter ~now));
  { config; book; netmon; loop }

(* RTT of one [size]-byte datagram against a probe daemon's echo
   responder; [None] on timeout. *)
let echo_rtt t ~target ~size ~timeout =
  match Addr_book.resolve t.book ~host:target ~port:Smart_proto.Ports.probe with
  | None -> None
  | Some to_ ->
    let socket = Udp_io.bind_port 0 in
    Fun.protect
      ~finally:(fun () -> Udp_io.stop socket)
      (fun () ->
        let payload = String.make size 'p' in
        let sent_at = Unix.gettimeofday () in
        if not (Udp_io.send socket ~to_ payload) then None
        else
          match Udp_io.recv_timeout socket ~timeout with
          | Some (_, _) -> Some (Unix.gettimeofday () -. sent_at)
          | None -> None)

(* The one-way-UDP-stream estimate over real sockets: two echo probes of
   different sizes, B = (S2-S1)/(T2-T1). *)
let socket_prober ?(timeout = 2.0) t ~target =
  let delay = echo_rtt t ~target ~size:64 ~timeout in
  let t1 = echo_rtt t ~target ~size:1600 ~timeout in
  let t2 = echo_rtt t ~target ~size:2900 ~timeout in
  match (delay, t1, t2) with
  | Some d, Some t1, Some t2 when t2 > t1 ->
    Some
      {
        Smart_core.Netmon.delay = d /. 2.0;
        bandwidth = float_of_int (2900 - 1600) /. (t2 -. t1);
      }
  | Some d, _, _ ->
    (* bandwidth indistinguishable (fast local path): report delay only
       with a conservative bandwidth floor *)
    Some { Smart_core.Netmon.delay = d /. 2.0; bandwidth = 0.0 }
  | _ -> None

(* The echo probes run on the caller's thread, as one can wait out its
   timeout; the finished round crosses to the loop, which publishes it. *)
let refresh_netmon t =
  let now = Unix.gettimeofday () in
  let measure target = (target, socket_prober t ~target) in
  let measured = List.map measure t.config.netmon_targets in
  Loop.call t.loop (fun () ->
      Smart_core.Netmon.probe_all t.netmon ~now ~prober:(fun ~target ->
          List.assoc target measured))

let start t = Loop.start t.loop

let stop t = Loop.stop t.loop
