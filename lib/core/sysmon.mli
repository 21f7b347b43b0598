(** The system status monitor (§3.2.2): ingests probe reports, expires
    servers after [missed_intervals] silent probe periods. *)

type config = {
  probe_interval : float;  (** expected reporting period of the probes *)
  missed_intervals : int;
      (** silent periods tolerated before a server expires (3 in §4.1) *)
}

(** 5 s probe interval, 3 missed intervals (§4.1). *)
val default_config : config

type t

(** [create ?config ?adaptive ?metrics ?trace db] builds a monitor
    writing to [db].  [metrics] receives the [sysmon.*] instruments (see
    OBSERVABILITY.md); by default a private registry is used.  [trace]
    records [sysmon.ingest] spans (parented on the trace context a
    traced report carries) and [sysmon.sweep] spans; defaults to
    {!Smart_util.Tracelog.disabled}.

    Flap quarantine: a server expired three times is quarantined (its
    reports are counted but no longer inserted) until it has reported
    for three continuous clean probe periods (no gap over 1.5
    intervals).  [adaptive] (default off) arms adaptive quarantine
    (DESIGN.md §14): on a lossy network every host accumulates flap
    score and the fixed threshold would quarantine the whole fleet.
    Each expiry feeds the host's new flap score into a deterministic
    quantile sketch ({!Smart_util.Sketch}, seeded from a fixed string,
    so same-seed runs stay byte-identical); once 8 scores are in, the
    effective threshold becomes 1.5 times the q90 of observed scores,
    clamped to [[3, 32]] — only outliers relative to the fleet's own
    flap rate are quarantined.  Every change is metered
    ([sysmon.effective_flap_threshold] gauge,
    [sysmon.threshold_adaptations_total] counter) and traced as a
    [sysmon.tune] instant. *)
val create :
  ?config:config ->
  ?adaptive:bool ->
  ?metrics:Smart_util.Metrics.t ->
  ?trace:Smart_util.Tracelog.t ->
  Status_db.t ->
  t

(** Handle one report datagram; updates the database on success.  A
    quarantined host's report is decoded and counted
    ([sysmon.quarantined_reports_total]) but only re-enters the database
    once its clean streak spans three probe periods. *)
val handle_report :
  t -> now:float -> string -> (Smart_proto.Report.t, string) result

(** Expiry sweep: drops the servers silent for [missed_intervals] probe
    periods and returns how many.  Every expiry raises the host's flap
    score; at the effective threshold (3 unless adaptive quarantine
    moved it, the [sysmon.effective_flap_threshold] gauge) the host is
    quarantined ([sysmon.quarantined_total], the
    [sysmon.quarantined] gauge, a [sysmon.quarantine] trace instant). *)
val sweep : t -> now:float -> int
