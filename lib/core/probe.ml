(* The server probe (§3.2.1): samples the five /proc files, derives rates
   from the previous sample, and emits one ASCII report datagram to the
   system monitor per interval. *)

type config = {
  host : string;
  ip : string;
  bogomips : float;
  monitor : Output.address;       (* system monitor's endpoint *)
  iface : string;                 (* interface to report, e.g. "eth0" *)
}

(* Adaptive reporting (DESIGN.md §14): scale the report interval with
   the observed variability of the probe's headline signal (load1).  A
   steady host earns a slow cadence (up to [max_factor] x base), a noisy
   one reports fast (down to [min_factor] x base), once [min_samples]
   load1 values are in.  [max_factor] must stay below the sysmon's
   missed_intervals (3) or a healthy slow probe would be expired for
   silence. *)
let min_factor = 0.5

let max_factor = 2.0

let min_samples = 8

type sample = {
  at : float;
  cpu : Smart_host.Procfs.cpu_jiffies;
  disk : Smart_host.Procfs.disk_io;
  net : Smart_host.Procfs.netdev_stat;
}

type t = {
  config : config;
  adaptive_base : float option;  (* the nominal period, when adaptive *)
  value_sketch : Smart_util.Sketch.t;  (* load1 observations *)
  mutable interval_now : float;  (* effective report interval, seconds *)
  mutable prev : sample option;
  trace : Smart_util.Tracelog.t;
  reports_total : Smart_util.Metrics.Counter.t;
  report_bytes_total : Smart_util.Metrics.Counter.t;
  errors_total : Smart_util.Metrics.Counter.t;
  interval_gauge : Smart_util.Metrics.Gauge.t;
  adaptations_total : Smart_util.Metrics.Counter.t;
}

let create ?(metrics = Smart_util.Metrics.create ())
    ?(trace = Smart_util.Tracelog.disabled) ?adaptive_base config =
  (match adaptive_base with
  | Some base when base <= 0.0 ->
    invalid_arg "Probe.create: adaptive_base must be positive"
  | Some _ | None -> ());
  {
    config;
    adaptive_base;
    value_sketch =
      Smart_util.Sketch.create
        ~rng:
          (Smart_util.Prng.create
             ~seed:(Smart_util.Crc32.string ("probe.adapt:" ^ config.host)))
        ();
    interval_now = Option.value adaptive_base ~default:0.0;
    prev = None;
    trace;
    reports_total =
      Smart_util.Metrics.counter metrics ~help:"report datagrams emitted"
        "probe.reports_total";
    report_bytes_total =
      Smart_util.Metrics.counter metrics ~help:"report payload bytes emitted"
        "probe.report_bytes_total";
    errors_total =
      Smart_util.Metrics.counter metrics
        ~help:"ticks lost to /proc parse or interface failures"
        "probe.errors_total";
    interval_gauge =
      Smart_util.Metrics.gauge metrics
        ~help:"effective report interval, seconds (adaptive probes)"
        "probe.report_interval_seconds";
    adaptations_total =
      Smart_util.Metrics.counter metrics
        ~help:"adaptive report-interval changes"
        "probe.interval_adaptations_total";
  }

let ( let* ) r f = Result.bind r f

let find_iface config stats =
  match
    List.find_opt
      (fun s -> String.equal s.Smart_host.Procfs.iface config.iface)
      stats
  with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "probe: no interface %s" config.iface)

(* Per-second rate of a counter between two samples. *)
let rate ~dt current previous = if dt <= 0.0 then 0.0 else (current -. previous) /. dt

let report_of t ~now ~(loadavg : Smart_host.Procfs.loadavg)
    ~(cpu : Smart_host.Procfs.cpu_jiffies) ~(mem : Smart_host.Procfs.meminfo)
    ~(disk : Smart_host.Procfs.disk_io) ~(net : Smart_host.Procfs.netdev_stat)
    =
  let mb bytes = float_of_int bytes /. (1024.0 *. 1024.0) in
  let cpu_fracs, disk_rates, net_rates =
    match t.prev with
    | None ->
      (* first sample: no interval to differentiate over *)
      ((0.0, 0.0, 0.0, 1.0), (0.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0))
    | Some prev ->
      let dt = now -. prev.at in
      let du = cpu.Smart_host.Procfs.user -. prev.cpu.Smart_host.Procfs.user in
      let dn = cpu.Smart_host.Procfs.nice -. prev.cpu.Smart_host.Procfs.nice in
      let ds =
        cpu.Smart_host.Procfs.system -. prev.cpu.Smart_host.Procfs.system
      in
      let di = cpu.Smart_host.Procfs.idle -. prev.cpu.Smart_host.Procfs.idle in
      let total = du +. dn +. ds +. di in
      let frac x = if total <= 0.0 then 0.0 else x /. total in
      ( (frac du, frac dn, frac ds, frac di),
        ( rate ~dt disk.Smart_host.Procfs.rreq prev.disk.Smart_host.Procfs.rreq,
          rate ~dt disk.Smart_host.Procfs.rblocks
            prev.disk.Smart_host.Procfs.rblocks,
          rate ~dt disk.Smart_host.Procfs.wreq prev.disk.Smart_host.Procfs.wreq,
          rate ~dt disk.Smart_host.Procfs.wblocks
            prev.disk.Smart_host.Procfs.wblocks ),
        ( rate ~dt net.Smart_host.Procfs.rbytes prev.net.Smart_host.Procfs.rbytes,
          rate ~dt net.Smart_host.Procfs.rpackets
            prev.net.Smart_host.Procfs.rpackets,
          rate ~dt net.Smart_host.Procfs.tbytes prev.net.Smart_host.Procfs.tbytes,
          rate ~dt net.Smart_host.Procfs.tpackets
            prev.net.Smart_host.Procfs.tpackets ) )
  in
  let cpu_user, cpu_nice, cpu_system, cpu_free = cpu_fracs in
  let disk_rreq, disk_rblocks, disk_wreq, disk_wblocks = disk_rates in
  let net_rbytes, net_rpackets, net_tbytes, net_tpackets = net_rates in
  {
    Smart_proto.Report.host = t.config.host;
    ip = t.config.ip;
    load1 = loadavg.Smart_host.Procfs.l1;
    load5 = loadavg.Smart_host.Procfs.l5;
    load15 = loadavg.Smart_host.Procfs.l15;
    cpu_user;
    cpu_nice;
    cpu_system;
    cpu_free;
    bogomips = t.config.bogomips;
    mem_total = mb mem.Smart_host.Procfs.total;
    mem_used = mb mem.Smart_host.Procfs.used;
    mem_free = mb mem.Smart_host.Procfs.free;
    mem_buffers = mb mem.Smart_host.Procfs.buffers;
    mem_cached = mb mem.Smart_host.Procfs.cached;
    disk_rreq;
    disk_rblocks;
    disk_wreq;
    disk_wblocks;
    net_rbytes;
    net_rpackets;
    net_tbytes;
    net_tpackets;
  }

(* One probe interval: parse the /proc snapshot, build the report, emit
   the datagram.  The tick span is the root of the report pipeline's
   trace: its context rides inside the report payload so the monitor and
   receiver spans downstream join the same tree. *)
let tick_inner t ~tick_span ~now ~(snapshot : Smart_host.Procfs.snapshot) =
  let* loadavg =
    Smart_host.Procfs.parse_loadavg snapshot.Smart_host.Procfs.loadavg_text
  in
  let* cpu, disk =
    Smart_host.Procfs.parse_stat snapshot.Smart_host.Procfs.stat_text
  in
  let* mem =
    Smart_host.Procfs.parse_meminfo snapshot.Smart_host.Procfs.meminfo_text
  in
  let* netdevs =
    Smart_host.Procfs.parse_net_dev snapshot.Smart_host.Procfs.netdev_text
  in
  let* net = find_iface t.config netdevs in
  let build =
    Smart_util.Tracelog.start t.trace
      ~parent:(Smart_util.Tracelog.ctx_of tick_span) "probe.build"
  in
  let report = report_of t ~now ~loadavg ~cpu ~mem ~disk ~net in
  t.prev <- Some { at = now; cpu; disk; net };
  let payload =
    Smart_proto.Report.to_string
      ~trace:(Smart_util.Tracelog.ctx_of tick_span) report
  in
  Smart_util.Tracelog.finish t.trace build;
  Ok
    ( report,
      [
        Output.udp ~host:t.config.monitor.Output.host
          ~port:t.config.monitor.Output.port payload;
      ],
      String.length payload )

(* The control decision: interval = base x a factor sliding linearly
   from [max_factor] (no spread: a flat signal tolerates slow reports)
   down to [min_factor] (relative inter-quantile spread >= 1).  Spread
   is (q90 - q10) / max(|median|, 0.1) over the load1 sketch — a
   bounded, deterministic dispersion measure that needs no running
   variance. *)
let adapt t report =
  match t.adaptive_base with
  | None -> ()
  | Some base ->
    let load1 = report.Smart_proto.Report.load1 in
    if Float.is_finite load1 then
      Smart_util.Sketch.observe t.value_sketch load1;
    if Smart_util.Sketch.count t.value_sketch >= min_samples then begin
      let q v = Smart_util.Sketch.quantile t.value_sketch v in
      let spread =
        (q 0.9 -. q 0.1) /. Float.max 0.1 (Float.abs (q 0.5))
      in
      let factor =
        Float.max min_factor
          (Float.min max_factor
             (max_factor -. (max_factor -. min_factor) *. Float.min 1.0 spread))
      in
      let interval = base *. factor in
      if not (Float.equal interval t.interval_now) then begin
        t.interval_now <- interval;
        Smart_util.Metrics.Gauge.set t.interval_gauge interval;
        Smart_util.Metrics.Counter.incr t.adaptations_total;
        Smart_util.Tracelog.instant t.trace "probe.adapt"
      end
    end

let tick t ~now ~snapshot =
  let tick_span = Smart_util.Tracelog.start t.trace "probe.tick" in
  let result =
    match tick_inner t ~tick_span ~now ~snapshot with
    | Ok (report, outputs, bytes) ->
      Smart_util.Metrics.Counter.incr t.reports_total;
      Smart_util.Metrics.Counter.incr t.report_bytes_total ~by:bytes;
      adapt t report;
      Ok (report, outputs)
    | Error _ as e ->
      Smart_util.Metrics.Counter.incr t.errors_total;
      e
  in
  Smart_util.Tracelog.finish t.trace tick_span;
  result

let report_interval t =
  match t.adaptive_base with None -> None | Some _ -> Some t.interval_now
