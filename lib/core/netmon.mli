(** The network monitor (§3.3.3): sequential (delay, bandwidth) probing
    of its targets, publishing a [net_record] to the status database. *)

(** One path measurement: one-way delay in seconds, bandwidth in
    bytes/second. *)
type probe_result = { delay : float; bandwidth : float }

(** What probing one target cost and found: the payload bytes of every
    datagram the prober sent, answered or not, and the measurement
    ([None] when the probe failed). *)
type probe = { sent_bytes : int; result : probe_result option }

(** Injected measurement backend (one-way UDP stream in both drivers). *)
type prober = target:string -> probe

type config = {
  monitor_name : string;  (** name this monitor publishes records under *)
  targets : string list;  (** probed strictly in order, never in parallel *)
}

type t

(** [create ?metrics ?trace config db] builds a monitor publishing to
    [db].  [metrics] receives the [netmon.*] instruments (see
    OBSERVABILITY.md); by default a private registry is used.  [trace]
    records one [netmon.round] span per {!probe_all} with a child
    [netmon.probe] span per target; defaults to
    {!Smart_util.Tracelog.disabled}. *)
val create :
  ?metrics:Smart_util.Metrics.t ->
  ?trace:Smart_util.Tracelog.t ->
  config ->
  Status_db.t ->
  t

(** Probe every target in order and publish the refreshed record. *)
val probe_all :
  t -> now:float -> prober:prober -> Smart_proto.Records.net_record
