(** The receiver (§3.5.2): reassembles transmitter frames from reliable
    streams and mirrors them into the wizard-side databases.

    A [Sec_db] frame whose payload repeats, byte for byte, the last one
    this receiver applied is skipped when no security change
    ({!Status_db.sec_changes}) landed on the database since: the table
    already holds what it carries.  A skipped frame still counts as
    applied — in [receiver.frames_total] and [receiver.frames_bytes],
    with its [receiver.frame] span and an update-hook call. *)

type t

(** [create ?metrics ?trace ~order db] builds a receiver mirroring into
    [db].  [order] must match the transmitters' byte order.  [metrics]
    receives the [receiver.*] instruments (see OBSERVABILITY.md); by
    default a private registry is used.  [trace] records a
    [receiver.frame] span per applied frame (parented on the context the
    frame carries) with a [receiver.commit] child around the Sys_db
    batch write; defaults to {!Smart_util.Tracelog.disabled}. *)
val create :
  ?metrics:Smart_util.Metrics.t ->
  ?trace:Smart_util.Tracelog.t ->
  order:Smart_proto.Endian.order ->
  Status_db.t ->
  t

(** Notification hook fired after every successfully applied frame,
    skipped repeats included (used by the distributed-mode wizard to
    detect fresh data). *)
val set_update_hook : t -> (Smart_proto.Frame.payload_type -> unit) option -> unit

(** Hook receiving every decoded [Digest_db] payload — the federation
    root's intake of shard summaries.  Digests never touch the mirror
    database; they are counted in [federation.digests_received_total]
    and handed here (dropped when no hook is set). *)
val set_digest_hook : t -> (Smart_proto.Digest.t -> unit) option -> unit

(** Hook receiving every decoded [Sketch_db] payload — the federation
    root's intake of shard quantile sketches.  Like digests they never
    touch the mirror database; they are counted in
    [federation.sketches_received_total] and handed here (dropped when
    no hook is set). *)
val set_sketch_hook : t -> (Smart_proto.Sketch_msg.t -> unit) option -> unit

(** Feed raw stream bytes arriving from transmitter [from].  Corrupt
    stretches never stop the stream: the frame decoder resynchronises
    past them (metered by [receiver.resyncs_total] and
    [receiver.corrupt_bytes_total]) and every decodable frame is
    applied.  [Error] reports the first record-level decode failure of
    the batch, after the rest has still been applied.  A frame that
    fails writes nothing, and a [Sys_db] payload that is not a whole
    number of records fails (an empty one is valid: no hosts). *)
val handle_stream : t -> from:string -> string -> (unit, string) result

(** Discard the stream state of source [from] (call when its connection
    closes): pending partial-frame bytes and the host-ownership record
    are dropped, and the [receiver.transmitters] gauge shrinks.  Drivers
    that tag sources per connection must call this or the per-source
    tables grow by one entry per push. *)
val forget_source : t -> from:string -> unit

(** Frames successfully applied to the mirror over the receiver's
    lifetime. *)
val frames_handled : t -> int

(** [Digest_db] frames decoded and handed to the digest hook. *)
val digests_handled : t -> int

(** [Sketch_db] frames decoded and handed to the sketch hook. *)
val sketches_handled : t -> int

(** Stream or record decode failures. *)
val decode_errors : t -> int

(** Stream corruption episodes survived by resynchronisation. *)
val resyncs : t -> int

(** Stream bytes discarded while resynchronising. *)
val corrupt_bytes : t -> int
