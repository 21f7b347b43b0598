(* Real-socket monitor machine: system monitor (UDP), security monitor
   (log file), network monitor (UDP echo probing of the servers' probe
   daemons), and the transmitter (periodic TCP push, or pull-driven in
   distributed mode). *)

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
  db : Smart_core.Status_db.t;
  metrics : Smart_util.Metrics.t;
  tracelog : Smart_util.Tracelog.t;
  sysmon : Smart_core.Sysmon.t;
  secmon : Smart_core.Secmon.t;
  netmon : Smart_core.Netmon.t;
  transmitter : Smart_core.Transmitter.t;
  sys_socket : Udp_io.t;
  pull_socket : Udp_io.t;
  out_socket : Udp_io.t;
  mutable running : bool;
  mutable threads : Thread.t list;
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
  {
    config;
    book;
    db;
    metrics;
    tracelog;
    sysmon;
    secmon;
    netmon;
    transmitter;
    sys_socket = Udp_io.bind_port (Smart_proto.Ports.sysmon + shift);
    pull_socket = Udp_io.bind_port (Smart_proto.Ports.transmitter + shift);
    out_socket = Udp_io.bind_port 0;
    running = false;
    threads = [];
  }

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

let refresh_netmon t =
  Smart_core.Netmon.probe_all t.netmon ~now:(Unix.gettimeofday ())
    ~prober:(fun ~target -> socket_prober t ~target)

(* Execute transmitter outputs with the resilience hooks wired: a failed
   TCP push lands in the transmitter's bounded resend queue (and arms its
   backoff), a successful one resets it. *)
let perform_transmits t outputs =
  Perform.outputs t.book ~udp:t.out_socket outputs
    ~on_stream_failure:(fun ~data ->
      Smart_core.Transmitter.note_send_failure t.transmitter
        ~now:(Unix.gettimeofday ()) ~data)
    ~on_stream_ok:(fun () ->
      Smart_core.Transmitter.note_send_ok t.transmitter)

let start t =
  if t.running then invalid_arg "Monitor_daemon.start: already running";
  t.running <- true;
  Udp_io.start t.sys_socket (fun ~from:_ data ->
      if not (String.equal data "") then
        ignore
          (Smart_core.Sysmon.handle_report t.sysmon
             ~now:(Unix.gettimeofday ()) data));
  Udp_io.start t.pull_socket (fun ~from data ->
      if
        not
          (Udp_io.answer_scrape t.pull_socket ~metrics:t.metrics
             ~trace:t.tracelog ~from data)
      then
        perform_transmits t
          (Smart_core.Transmitter.handle_pull t.transmitter ~data));
  let transmit_loop () =
    while t.running do
      let now = Unix.gettimeofday () in
      ignore (Smart_core.Sysmon.sweep t.sysmon ~now);
      perform_transmits t (Smart_core.Transmitter.tick t.transmitter ~now);
      Thread.delay t.config.transmit_interval
    done
  in
  t.threads <- [ Thread.create transmit_loop () ]

let stop t =
  t.running <- false;
  List.iter Thread.join t.threads;
  t.threads <- [];
  Udp_io.stop t.sys_socket;
  Udp_io.stop t.pull_socket;
  Udp_io.stop t.out_socket
