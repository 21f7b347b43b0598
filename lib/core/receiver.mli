(** The receiver (§3.5.2): reassembles transmitter frames from reliable
    streams and mirrors them into the wizard-side databases.

    A [Sys_db] frame is not decoded: its records stay in the frame
    payload ({!Status_db.update_sys_payload}), and the receiver reads
    only their host names, reusing the strings of the source's previous
    snapshot for the hosts it names again.

    Hosts a snapshot no longer names leave the mirror.  What a snapshot
    is compared with is keyed on the monitor the source's [Net_db]
    frames name (every push carries one), so it survives the push's
    connection: a monitor's next push, on any connection, drops the
    hosts it expired.  A source that has named no monitor keys its
    snapshots on its own tag.

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
    closes): pending partial-frame bytes are dropped, and the
    [receiver.transmitters] gauge shrinks.  The hosts it pushed stay
    owned by the monitor it named.  A source that named none (a push cut
    before its [Net_db] frame) takes its tag-keyed record with it, and
    the hosts no other owner claims leave the mirror.  Drivers that tag
    sources per connection must call this or the per-source table grows
    by one entry per push. *)
val forget_source : t -> from:string -> unit
