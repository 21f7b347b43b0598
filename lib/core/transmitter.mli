(** The transmitter (§3.5.1): ships database snapshots to the receiver as
    [type,size,data] frames; active in centralized mode, pull-driven in
    distributed mode. *)

(** [Centralized] pushes on every tick; [Distributed] stays passive and
    answers the wizard's pull requests. *)
type mode = Centralized | Distributed

(** Datagram body that triggers a distributed-mode push. *)
val pull_request_magic : string

type config = {
  mode : mode;  (** push-on-tick vs pull-driven *)
  order : Smart_proto.Endian.order;  (** must match the receiver's *)
  receiver : Output.address;  (** where the frames are streamed to *)
}

type t

(** [create ?metrics ?trace ~monitor_name config db] builds a
    transmitter snapshotting [db].  [monitor_name] selects which network
    record the Net_db frame carries.  [metrics] receives the
    [transmitter.*] instruments (see OBSERVABILITY.md); by default a
    private registry is used.  [trace] records a [transmitter.push] span
    per push, parented on {!Status_db.last_trace} and embedded in the
    emitted frames; defaults to {!Smart_util.Tracelog.disabled}.

    [crc] (default off) appends a CRC-32 trailer to every emitted frame
    so the receiver can detect and resynchronise past stream corruption.
    The failure resend queue holds 8 payloads (oldest drop first — a
    newer snapshot supersedes them), and the retry delays after
    {!note_send_failure} follow {!Smart_util.Backoff.default}'s nominal
    schedule, unjittered.

    [summary] switches the transmitter into digest-uplink mode: every
    push ships one [Digest_db] frame holding [summary ()] instead of the
    three database snapshots — how a regional wizard feeds the
    federation root column ranges rather than raw records.  All delivery
    machinery (resend queue, backoff, pull handling) applies unchanged;
    digest pushes are additionally counted in
    [transmitter.digest_pushes_total].

    [sketches] attaches a quantile-sketch uplink: every push whose
    callback returns a non-empty batch also ships one [Sketch_db] frame
    holding it, stamped with [sketch_source] (the shard name; default
    [""]) and counted in [transmitter.sketch_pushes_total] — how a
    shard feeds the root the latency distributions it can merge, which
    digests cannot carry. *)
val create :
  ?metrics:Smart_util.Metrics.t ->
  ?trace:Smart_util.Tracelog.t ->
  ?crc:bool ->
  ?summary:(unit -> Smart_proto.Digest.t) ->
  ?sketches:(unit -> (string * Smart_util.Sketch.t) list) ->
  ?sketch_source:string ->
  monitor_name:string ->
  config ->
  Status_db.t ->
  t

(** The frames of the current database state — the three snapshot frames,
    or a single [Digest_db] frame in digest-uplink mode, plus a
    [Sketch_db] frame when a sketch uplink is attached and non-empty —
    untraced ({!Smart_util.Tracelog.root} as their context). *)
val snapshot_frames : t -> Smart_proto.Frame.frame list

(** Unconditional push (both modes). *)
val push : t -> Output.t list

(** Periodic tick at driver time [now]: quiet while backing off after a
    reported failure; otherwise drains the resend queue (both modes) and
    pushes a fresh snapshot (centralized mode only). *)
val tick : t -> now:float -> Output.t list

(** The driver reports a stream delivery that failed: the payload joins
    the bounded resend queue, [transmitter.send_failures_total] ticks,
    and subsequent {!tick}s stay quiet until an exponential-backoff
    delay from [now] has passed. *)
val note_send_failure : t -> now:float -> data:string -> unit

(** The driver reports a completed stream delivery; resets the backoff. *)
val note_send_ok : t -> unit

(** Pull request handler: pushes in distributed mode when the magic
    matches, no-op otherwise. *)
val handle_pull : t -> data:string -> Output.t list
