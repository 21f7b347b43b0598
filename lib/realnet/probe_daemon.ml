(* Real-socket server probe daemon: the probe role on one event loop,
   sampling the host's /proc at a fixed interval and reporting to the
   system monitor.  Its echo port answers the network monitor's UDP echo
   probes, which is how (delay, bandwidth) is measured without raw ICMP
   sockets. *)

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
  let role =
    Smart_core.Role.probe (Daemon.env ())
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
      }
      ~interval:config.interval
      ~snapshot:(fun ~now:_ -> Proc_reader.snapshot config.proc)
  in
  fst (Daemon.install book ~host:config.host role)

let start = Loop.start

let stop = Loop.stop
