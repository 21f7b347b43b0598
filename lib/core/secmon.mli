(** The security monitor (§3.4): imports (host, clearance level) records
    into the security database from the dummy security log or a pluggable
    agent. *)

type t

(** [create ?metrics ?trace db] builds a monitor writing to [db].
    [metrics] receives the [secmon.*] instruments (see
    OBSERVABILITY.md); by default a private registry is used.  [trace]
    records a [secmon.refresh] span per table replacement; defaults to
    {!Smart_util.Tracelog.disabled}. *)
val create :
  ?metrics:Smart_util.Metrics.t ->
  ?trace:Smart_util.Tracelog.t ->
  Status_db.t ->
  t

(** Parse and ingest a security log text ("host level" lines). *)
val refresh_from_log :
  t -> string -> (Smart_proto.Records.sec_record, string) result
