(** The server probe (§3.2.1): turns periodic /proc snapshots into status
    report datagrams for the system monitor.

    The component is sans-IO: [tick] returns the report and the datagram
    to send; simulated and real drivers both call it. *)

type config = {
  host : string;  (** logical name this server reports as *)
  ip : string;  (** address included in each report *)
  bogomips : float;  (** static CPU speed figure from /proc/cpuinfo *)
  monitor : Output.address;  (** system monitor endpoint reports go to *)
  iface : string;  (** interface whose counters are reported, e.g. "eth0" *)
}

type t

(** The slowest adaptive cadence, as a multiple of the nominal period:
    2.  It stays below the sysmon's three missed intervals, or a
    healthy, deliberately slow probe would be expired for silence. *)
val max_factor : float

(** [create ?metrics ?trace ?adaptive_base config] builds a probe.
    [metrics] receives the [probe.*] instruments (see OBSERVABILITY.md);
    by default a private registry is used.  [trace] records [probe.tick]
    and [probe.build] spans; the tick span's context is embedded in the
    emitted report so downstream components continue the same trace.
    Defaults to {!Smart_util.Tracelog.disabled} (no recording, no
    context on the wire).

    [adaptive_base] (default off), the nominal report period in seconds,
    arms adaptive reporting (DESIGN.md §14): each successful tick feeds
    load1 into a deterministic quantile sketch (seeded from
    [config.host], so same-seed runs stay byte-identical); once 8 values
    are in, the effective interval becomes [adaptive_base] times a
    factor sliding linearly from {!max_factor} (flat signal) down to 0.5
    (relative q10-q90 spread >= 1).  Every interval change is metered
    ([probe.report_interval_seconds] gauge,
    [probe.interval_adaptations_total] counter) and traced as a
    [probe.adapt] instant.  Raises [Invalid_argument] on a non-positive
    [adaptive_base]. *)
val create :
  ?metrics:Smart_util.Metrics.t ->
  ?trace:Smart_util.Tracelog.t ->
  ?adaptive_base:float ->
  config ->
  t

(** One probe interval.  Rates (CPU fractions, disk and network per-second
    figures) are differentiated against the previous tick; the first tick
    reports zero rates and a fully idle CPU. *)
val tick :
  t ->
  now:float ->
  snapshot:Smart_host.Procfs.snapshot ->
  (Smart_proto.Report.t * Output.t list, string) result

(** The effective report interval a self-scheduling driver should sleep
    before the next {!tick}: [adaptive_base] until the sketch has
    adapted it, [None] when the probe was built without it (the driver
    keeps its own fixed cadence). *)
val report_interval : t -> float option
