(* Real-socket server probe daemon on one event loop: samples the host's
   /proc at a fixed interval and reports to the system monitor.  Also
   answers the network monitor's UDP echo probes on the probe port, which
   is how (delay, bandwidth) is measured without raw ICMP sockets. *)

type config = {
  host : string;           (* logical name this server reports as *)
  ip : string;
  monitor_host : string;   (* where the system monitor runs *)
  interval : float;
  proc : Proc_reader.t;
  iface : string option;   (* None: auto-detect first non-loopback *)
}

type t = Loop.t

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
  (* a failed /proc read counts with the component's own lost ticks *)
  let errors =
    Smart_util.Metrics.counter metrics
      ~help:"ticks lost to /proc parse or interface failures"
      "probe.errors_total"
  in
  let shift = Addr_book.port_shift book ~host:config.host in
  let echo = Udp_io.bind_port (Smart_proto.Ports.probe + shift) in
  let loop = Loop.create () in
  (* echo responder: bounce every datagram back to its sender (metrics
     scrapes answered with the registry dump instead) *)
  Udp_io.serve loop echo (fun ~now:_ ~from data ->
      if not (Udp_io.answer_scrape echo ~metrics ~trace:tracelog ~from data)
      then ignore (Udp_io.send echo ~to_:from data));
  Loop.every loop config.interval (fun ~now ->
      match Proc_reader.snapshot config.proc with
      | Error _ -> Smart_util.Metrics.Counter.incr errors
      | Ok snapshot ->
        (match Smart_core.Probe.tick probe ~now ~snapshot with
        | Error _ -> ()
        | Ok (_report, outputs) -> Perform.outputs book ~udp:echo outputs));
  loop

let start = Loop.start

let stop = Loop.stop
