(** The system status monitor (§3.2.2): ingests probe reports, expires
    servers after [missed_intervals] silent probe periods. *)

type config = {
  probe_interval : float;  (** expected reporting period of the probes *)
  missed_intervals : int;
      (** silent periods tolerated before a server expires (3 in §4.1) *)
  flap_threshold : int;
      (** expiries before a server is quarantined as flapping (its
          reports are counted but no longer inserted); 0 disables *)
  clean_intervals : int;
      (** continuous clean probe periods (no gap over 1.5 intervals)
          before a quarantined server is re-admitted *)
}

(** 5 s probe interval, 3 missed intervals (§4.1); quarantine after 3
    expiries, re-admit after 3 clean intervals. *)
val default_config : config

(** Adaptive quarantine (DESIGN.md §14): on a lossy network every host
    accumulates flap score and the fixed [flap_threshold] would
    quarantine the whole fleet.  Each expiry feeds the host's new flap
    score into a deterministic quantile sketch ({!Smart_util.Sketch});
    once [min_samples] scores are in, the effective threshold becomes
    [factor] times the [quantile] of observed scores, clamped to
    [[flap_threshold, max_threshold]] — only outliers relative to the
    fleet's own flap rate are quarantined.  Every change is metered
    ([sysmon.effective_flap_threshold] gauge,
    [sysmon.threshold_adaptations_total] counter) and traced as a
    [sysmon.tune] instant. *)
type flap_policy = {
  factor : float;  (** threshold = [factor] x flap-score quantile *)
  quantile : float;  (** which flap-score quantile, in [0, 1] *)
  max_threshold : int;  (** upper clamp *)
  min_samples : int;  (** scores required before adapting *)
}

(** factor 1.5, quantile 0.9, max_threshold 32, min_samples 8. *)
val default_flap_policy : flap_policy

type t

(** [create ?config ?metrics ?trace db] builds a monitor writing to
    [db].  [metrics] receives the [sysmon.*] instruments (see
    OBSERVABILITY.md); by default a private registry is used.  [trace]
    records [sysmon.ingest] spans (parented on the trace context a
    traced report carries) and [sysmon.sweep] spans; defaults to
    {!Smart_util.Tracelog.disabled}.  [flap_policy] (default off) arms
    the adaptive quarantine threshold described at {!flap_policy}; its
    sketch PRNG is seeded from a fixed string, so same-seed runs stay
    byte-identical. *)
val create :
  ?config:config ->
  ?flap_policy:flap_policy ->
  ?metrics:Smart_util.Metrics.t ->
  ?trace:Smart_util.Tracelog.t ->
  Status_db.t ->
  t

(** Handle one report datagram; updates the database on success.  A
    quarantined host's report is decoded and counted
    ([sysmon.quarantined_reports_total]) but only re-enters the database
    once its clean streak spans [clean_intervals] probe periods. *)
val handle_report :
  t -> now:float -> string -> (Smart_proto.Report.t, string) result

(** Expiry sweep: drops the servers silent for [missed_intervals] probe
    periods and returns how many.  Every expiry raises the host's flap
    score; at the effective threshold ([flap_threshold] unless a
    {!flap_policy} adapted it, the [sysmon.effective_flap_threshold]
    gauge) the host is quarantined ([sysmon.quarantined_total], the
    [sysmon.quarantined] gauge, a [sysmon.quarantine] trace instant). *)
val sweep : t -> now:float -> int
