(** The transmitter (§3.5.1): ships database snapshots to the receiver as
    [type,size,data] frames; active in centralized mode, pull-driven in
    distributed mode. *)

(** [Centralized] pushes on every tick; [Distributed] stays passive and
    answers the wizard's pull requests. *)
type mode = Centralized | Distributed

(** Datagram body that triggers a distributed-mode push. *)
val pull_request_magic : string

(** Payloads the resend queue holds before dropping the oldest (8). *)
val default_resend_capacity : int

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
    [resend_capacity] bounds the failure resend queue (oldest payloads
    drop first — a newer snapshot supersedes them); [backoff] and [rng]
    shape the retry delays after {!note_send_failure} ([rng] jitters
    them; omitted, delays are the deterministic nominal schedule).

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
  ?resend_capacity:int ->
  ?backoff:Smart_util.Backoff.policy ->
  ?rng:Smart_util.Prng.t ->
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
    carrying [trace] (default {!Smart_util.Tracelog.root}, i.e.
    untraced) as their context. *)
val snapshot_frames :
  ?trace:Smart_util.Tracelog.ctx -> t -> Smart_proto.Frame.frame list

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

(** Whether {!tick} would currently stay quiet. *)
val backing_off : t -> now:float -> bool

(** Pull request handler: pushes in distributed mode when the magic
    matches, no-op otherwise. *)
val handle_pull : t -> data:string -> Output.t list

(** Snapshots shipped over the transmitter's lifetime. *)
val pushes : t -> int

(** Total encoded frame bytes shipped. *)
val bytes_sent : t -> int

(** Stream deliveries the driver reported failed. *)
val send_failures : t -> int

(** Queued payloads re-sent after backoff. *)
val resends : t -> int

(** Pushes that shipped a federation digest (digest-uplink mode). *)
val digest_pushes : t -> int

(** Payloads currently waiting in the resend queue. *)
val resend_queue_length : t -> int
