(* The receiver (§3.5.2): reassembles transmitter frames from the stream
   and mirrors them into the wizard-side databases, so the wizard can use
   the contents "as if they were generated locally".

   A push pays for what it changes:
   - A system snapshot is not decoded.  Each record stays in the frame
     payload, where the database reads its values
     ([Status_db.update_sys_payload]); the receiver reads only the host
     names.  A snapshot naming the same hosts as its source's previous
     one is matched in place against that one's names, so it reuses
     those strings, allocates no per-record key and skips the ownership
     diff.
   - Every monitor group's transmitter ships the same whole security
     table, so a security frame that repeats the last one applied, byte
     for byte, with no security change landing on the database since,
     is not decoded or written: the table already holds what it carries.
     It still counts as applied (frame metrics, span, update hook). *)

module Metrics = Smart_util.Metrics

(* Per-source stream state: the decoder plus the resync statistics we
   have already exported, so cumulative decoder counts turn into metric
   increments, and the monitor the source's Net_db frames name. *)
type source = {
  dec : Smart_proto.Frame.decoder;
  mutable seen_skipped : int;
  mutable seen_resyncs : int;
  mutable monitor : string option;
}

type t = {
  order : Smart_proto.Endian.order;
  db : Status_db.t;
  trace : Smart_util.Tracelog.t;
  decoders : (string, source) Hashtbl.t;
      (* one stream decoder per source tag *)
  owned_hosts : (string, string array) Hashtbl.t;
      (* owner -> hosts its last Sys_db snapshot named, in record order;
         hosts that disappear from a snapshot (expired on the monitor
         side) are dropped from the mirror.  The owner is the monitor a
         source's Net_db frames name, so ownership outlives a
         connection; a source that has named none owns under its tag. *)
  mutable last_sec : (string * int) option;
      (* payload of the last Sec_db frame applied, and the database's
         [Status_db.sec_changes] right after it *)
  frames_total : Metrics.Counter.t;
  frames_bytes : Metrics.Counter.t;
  decode_errors_total : Metrics.Counter.t;
  resyncs_total : Metrics.Counter.t;
  corrupt_bytes_total : Metrics.Counter.t;
  transmitters : Metrics.Gauge.t;
  digests_total : Metrics.Counter.t;
  sketches_total : Metrics.Counter.t;
  mutable on_update : (Smart_proto.Frame.payload_type -> unit) option;
  mutable on_digest : (Smart_proto.Digest.t -> unit) option;
  mutable on_sketches : (Smart_proto.Sketch_msg.t -> unit) option;
}

let create ?(metrics = Metrics.create ())
    ?(trace = Smart_util.Tracelog.disabled) ~order db =
  {
    order;
    db;
    trace;
    decoders = Hashtbl.create 4;
    owned_hosts = Hashtbl.create 4;
    last_sec = None;
    frames_total =
      Metrics.counter metrics ~help:"frames applied to the mirror"
        "receiver.frames_total";
    frames_bytes =
      Metrics.counter metrics ~help:"payload bytes of applied frames"
        "receiver.frames_bytes";
    decode_errors_total =
      Metrics.counter metrics ~help:"stream or record decode failures"
        "receiver.decode_errors_total";
    resyncs_total =
      Metrics.counter metrics
        ~help:"stream corruption episodes survived by resync"
        "receiver.resyncs_total";
    corrupt_bytes_total =
      Metrics.counter metrics
        ~help:"stream bytes discarded while resynchronising"
        "receiver.corrupt_bytes_total";
    transmitters =
      Metrics.gauge metrics ~help:"transmitter sources with live stream state"
        "receiver.transmitters";
    digests_total =
      Metrics.counter metrics
        ~help:"federation digest frames decoded and handed to the hook"
        "federation.digests_received_total";
    sketches_total =
      Metrics.counter metrics
        ~help:"federation sketch frames decoded and handed to the hook"
        "federation.sketches_received_total";
    on_update = None;
    on_digest = None;
    on_sketches = None;
  }

(* The wizard (distributed mode) registers here to learn when fresh data
   has landed. *)
let set_update_hook t hook = t.on_update <- hook

(* The federation root registers here to collect shard digests; the
   receiver itself never mirrors them into the database — a digest is a
   summary, not server records. *)
let set_digest_hook t hook = t.on_digest <- hook

(* Likewise for sketch batches: the root merges them into deployment-wide
   quantiles; the mirror never stores them. *)
let set_sketch_hook t hook = t.on_sketches <- hook

let decoder_for t ~from =
  match Hashtbl.find_opt t.decoders from with
  | Some s -> s
  | None ->
    let s =
      {
        dec = Smart_proto.Frame.decoder t.order;
        seen_skipped = 0;
        seen_resyncs = 0;
        monitor = None;
      }
    in
    Hashtbl.replace t.decoders from s;
    Metrics.Gauge.set t.transmitters (float_of_int (Hashtbl.length t.decoders));
    s

(* The host names of the [n] records of a system payload.  A record
   naming the host at its index in [previous] (the source's last
   snapshot) reuses that string; a snapshot naming exactly [previous],
   in order, returns it. *)
let snapshot_hosts data ~n ~previous =
  let size = Smart_proto.Records.sys_record_size in
  let kept i =
    i < Array.length previous
    && Smart_proto.Records.wire_host_is data ~pos:(i * size) previous.(i)
  in
  let rec same i = i >= n || (kept i && same (i + 1)) in
  if n = Array.length previous && same 0 then previous
  else
    Array.init n (fun i ->
        if kept i then previous.(i)
        else Smart_proto.Records.wire_host data ~pos:(i * size))

(* [key] now owns [hosts]: the hosts it owned before and [hosts] lacks
   leave the mirror. *)
let own t key hosts =
  (match Hashtbl.find_opt t.owned_hosts key with
  | Some previous ->
    let covered = Hashtbl.create (max 8 (Array.length hosts)) in
    Array.iter (fun h -> Hashtbl.replace covered h ()) hosts;
    Array.iter
      (fun host ->
        if not (Hashtbl.mem covered host) then Status_db.remove_sys t.db ~host)
      previous
  | None -> ());
  Hashtbl.replace t.owned_hosts key hosts

(* A source's Net_db frame named [monitor]: the snapshot it pushed under
   its previous key (its tag, on a connection's first push) becomes the
   monitor's. *)
let adopt t src ~from monitor =
  let key = Option.value src.monitor ~default:from in
  (match Hashtbl.find_opt t.owned_hosts key with
  | Some hosts when not (String.equal key monitor) ->
    Hashtbl.remove t.owned_hosts key;
    own t monitor hosts
  | Some _ | None -> ());
  src.monitor <- Some monitor

(* Frames from a traced push carry the push span's context; the frame
   span adopts it, tying this mirror write to the monitor-side trace
   across the TCP hop. *)
let apply_frame t src ~from (frame : Smart_proto.Frame.frame) =
  let frame_span =
    Smart_util.Tracelog.start t.trace
      ~parent:frame.Smart_proto.Frame.trace "receiver.frame"
  in
  let commit_parent = Smart_util.Tracelog.ctx_of frame_span in
  let result =
    match frame.Smart_proto.Frame.payload_type with
    | Smart_proto.Frame.Sys_db ->
      (* the payload is a concatenation of fixed-size sys records (a
         partial one rejects the whole frame before anything is
         written); hosts owned by this transmitter that are absent from
         the snapshot have expired on the monitor side and leave the
         mirror too.  The whole snapshot is committed as one batched
         write (one db generation). *)
      let data = frame.Smart_proto.Frame.data in
      let size = Smart_proto.Records.sys_record_size in
      if String.length data mod size <> 0 then
        Error
          (Printf.sprintf
             "sys_db: %d bytes are not a whole number of %d-byte records"
             (String.length data) size)
      else begin
        let key = Option.value src.monitor ~default:from in
        let previous = Hashtbl.find_opt t.owned_hosts key in
        let hosts =
          snapshot_hosts data ~n:(String.length data / size)
            ~previous:(Option.value previous ~default:[||])
        in
        let commit =
          Smart_util.Tracelog.start t.trace ~parent:commit_parent
            "receiver.commit"
        in
        Status_db.update_sys_payload t.db t.order data ~hosts;
        Smart_util.Tracelog.finish t.trace commit;
        (match previous with
        | Some previous when previous == hosts -> ()
        | Some _ | None -> own t key hosts);
        Ok ()
      end
    | Smart_proto.Frame.Net_db ->
      (match Smart_proto.Records.decode_net t.order frame.Smart_proto.Frame.data with
      | Ok record ->
        Status_db.update_net t.db record;
        let monitor = record.Smart_proto.Records.monitor in
        (match src.monitor with
        | Some named when String.equal named monitor -> ()
        | Some _ | None -> adopt t src ~from monitor);
        Ok ()
      | Error m -> Error m)
    | Smart_proto.Frame.Sec_db ->
      let data = frame.Smart_proto.Frame.data in
      (match t.last_sec with
      | Some (applied, changes)
        when changes = Status_db.sec_changes t.db && String.equal applied data ->
        Ok ()
      | Some _ | None ->
        (match Smart_proto.Records.decode_sec t.order data with
        | Ok record ->
          Status_db.replace_sec t.db record;
          t.last_sec <- Some (data, Status_db.sec_changes t.db);
          Ok ()
        | Error m -> Error m))
    | Smart_proto.Frame.Digest_db ->
      (match Smart_proto.Digest.decode t.order frame.Smart_proto.Frame.data with
      | Ok digest ->
        Metrics.Counter.incr t.digests_total;
        (match t.on_digest with Some hook -> hook digest | None -> ());
        Ok ()
      | Error m -> Error m)
    | Smart_proto.Frame.Sketch_db ->
      (match
         Smart_proto.Sketch_msg.decode t.order frame.Smart_proto.Frame.data
       with
      | Ok batch ->
        Metrics.Counter.incr t.sketches_total;
        (match t.on_sketches with Some hook -> hook batch | None -> ());
        Ok ()
      | Error m -> Error m)
  in
  (match result with
  | Ok () ->
    Metrics.Counter.incr t.frames_total;
    Metrics.Counter.incr t.frames_bytes
      ~by:(String.length frame.Smart_proto.Frame.data);
    (match t.on_update with
    | Some hook -> hook frame.Smart_proto.Frame.payload_type
    | None -> ())
  | Error _ -> Metrics.Counter.incr t.decode_errors_total);
  Smart_util.Tracelog.finish t.trace frame_span;
  result

(* Feed raw stream bytes from a given transmitter.  Corruption never
   stops the stream: the decoder resyncs past damaged stretches (counted
   in [receiver.resyncs_total] / [receiver.corrupt_bytes_total]) and
   every frame that decodes is applied even when an earlier one in the
   same batch carried an undecodable record.  The result reports the
   first record-level failure, if any. *)
let handle_stream t ~from data =
  let src = decoder_for t ~from in
  Smart_proto.Frame.feed src.dec data;
  let frames = Smart_proto.Frame.frames src.dec in
  let skipped = Smart_proto.Frame.skipped_bytes src.dec in
  let resyncs = Smart_proto.Frame.resyncs src.dec in
  if skipped > src.seen_skipped then
    Metrics.Counter.incr t.corrupt_bytes_total ~by:(skipped - src.seen_skipped);
  if resyncs > src.seen_resyncs then
    Metrics.Counter.incr t.resyncs_total ~by:(resyncs - src.seen_resyncs);
  src.seen_skipped <- skipped;
  src.seen_resyncs <- resyncs;
  List.fold_left
    (fun acc f ->
      match (apply_frame t src ~from f, acc) with
      | Ok (), _ | _, Error _ -> acc
      | (Error _ as e), Ok () -> e)
    (Ok ()) frames

(* A source that closes without naming its monitor (a push cut before
   its Net_db frame) owned its snapshot under its tag: that record goes,
   and so do the hosts no other owner claims, since no later snapshot
   could drop them.  The monitor's next push brings back any still
   alive. *)
let disown t key =
  match Hashtbl.find_opt t.owned_hosts key with
  | None -> ()
  | Some hosts ->
    Hashtbl.remove t.owned_hosts key;
    let claimed = Hashtbl.create 64 in
    Hashtbl.iter
      (fun _ owned -> Array.iter (fun h -> Hashtbl.replace claimed h ()) owned)
      t.owned_hosts;
    Array.iter
      (fun host ->
        if not (Hashtbl.mem claimed host) then Status_db.remove_sys t.db ~host)
      hosts

(* A transmitter connection closed: drop its decoder (partial bytes
   would poison a later stream reusing the tag).  Realnet drivers tag
   sources per connection, so without this the table grows by one entry
   per push.  The hosts a source owns under a monitor's name stay that
   monitor's. *)
let forget_source t ~from =
  (match Hashtbl.find_opt t.decoders from with
  | Some { monitor = None; _ } -> disown t from
  | Some { monitor = Some _; _ } | None -> ());
  Hashtbl.remove t.decoders from;
  Metrics.Gauge.set t.transmitters (float_of_int (Hashtbl.length t.decoders))
