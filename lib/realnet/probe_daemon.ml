(* Real-socket server probe daemon: samples the host's /proc at a fixed
   interval and reports to the system monitor.  Also answers the network
   monitor's UDP echo probes on the probe port, which is how (delay,
   bandwidth) is measured without raw ICMP sockets. *)

type config = {
  host : string;           (* logical name this server reports as *)
  ip : string;
  monitor_host : string;   (* where the system monitor runs *)
  interval : float;
  proc : Proc_reader.t;
  iface : string option;   (* None: auto-detect first non-loopback *)
}

type t = {
  config : config;
  metrics : Smart_util.Metrics.t;
  tracelog : Smart_util.Tracelog.t;
  probe : Smart_core.Probe.t;
  udp : Udp_io.t;          (* source socket for reports *)
  echo : Udp_io.t;         (* netmon echo responder *)
  book : Addr_book.t;
  mutable running : bool;
  mutable thread : Thread.t option;
  mutable reports_sent : int;
  mutable last_error : string option;
}

let create book (config : config) =
  let bogomips =
    Option.value ~default:1000.0 (Proc_reader.bogomips config.proc)
  in
  let iface =
    match config.iface with
    | Some iface -> iface
    | None ->
      Option.value ~default:"eth0" (Proc_reader.default_iface config.proc)
  in
  let metrics = Smart_util.Metrics.create () in
  (* flight recorder: a small ring of recent spans on the wall clock,
     dumped on demand by SMART-TRACE scrapes *)
  let tracelog =
    Smart_util.Tracelog.create ~capacity:256 ~clock:Unix.gettimeofday ()
  in
  let probe =
    Smart_core.Probe.create ~metrics ~trace:tracelog
      {
        Smart_core.Probe.host = config.host;
        ip = config.ip;
        bogomips;
        monitor =
          {
            Smart_core.Output.host = config.monitor_host;
            port = Smart_proto.Ports.sysmon;
          };
        iface;
        transport = Smart_core.Probe.Udp;
      }
  in
  let shift = Addr_book.port_shift book ~host:config.host in
  let udp = Udp_io.bind_port 0 in
  let echo = Udp_io.bind_port (Smart_proto.Ports.probe + shift) in
  {
    config;
    metrics;
    tracelog;
    probe;
    udp;
    echo;
    book;
    running = false;
    thread = None;
    reports_sent = 0;
    last_error = None;
  }

let tick_once t =
  match Proc_reader.snapshot t.config.proc with
  | Error e -> t.last_error <- Some e
  | Ok snapshot ->
    (match
       Smart_core.Probe.tick t.probe ~now:(Unix.gettimeofday ()) ~snapshot
     with
    | Error e -> t.last_error <- Some e
    | Ok (_report, outputs) ->
      Perform.outputs t.book ~udp:t.udp outputs;
      t.reports_sent <- t.reports_sent + 1)

let start t =
  if t.running then invalid_arg "Probe_daemon.start: already running";
  t.running <- true;
  (* echo responder: bounce every datagram back to its sender (metrics
     scrapes answered with the registry dump instead) *)
  Udp_io.start t.echo (fun ~from data ->
      if
        not
          (Udp_io.answer_scrape t.echo ~metrics:t.metrics ~trace:t.tracelog
             ~from data)
      then ignore (Udp_io.send t.echo ~to_:from data));
  let loop () =
    while t.running do
      tick_once t;
      Thread.delay t.config.interval
    done
  in
  t.thread <- Some (Thread.create loop ())

let stop t =
  t.running <- false;
  (match t.thread with Some th -> Thread.join th | None -> ());
  t.thread <- None;
  Udp_io.stop t.echo;
  Udp_io.stop t.udp

let reports_sent t = t.reports_sent
