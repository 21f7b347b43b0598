(* The receiver (§3.5.2): reassembles transmitter frames from the stream
   and mirrors them into the wizard-side databases, so the wizard can use
   the contents "as if they were generated locally".

   A push pays for what it changes.  Every monitor group's transmitter
   ships the same whole security table, so a security frame that
   repeats the last one applied, byte for byte, with no security change
   landing on the database since, is not decoded or written: the table
   already holds what it carries.  It still counts as applied (frame
   metrics, span, update hook).  A system snapshot naming the same hosts
   as its source's previous one skips the ownership diff. *)

module Metrics = Smart_util.Metrics

(* Per-source stream state: the decoder plus the resync statistics we
   have already exported, so cumulative decoder counts turn into metric
   increments. *)
type source = {
  dec : Smart_proto.Frame.decoder;
  mutable seen_skipped : int;
  mutable seen_resyncs : int;
}

type t = {
  order : Smart_proto.Endian.order;
  db : Status_db.t;
  trace : Smart_util.Tracelog.t;
  decoders : (string, source) Hashtbl.t;
      (* one stream decoder per transmitter (keyed by source host) *)
  owned_hosts : (string, string list) Hashtbl.t;
      (* transmitter -> hosts its last Sys_db snapshot covered; hosts
         that disappear from a snapshot (expired on the monitor side)
         are dropped from the mirror *)
  mutable last_sec : (string * int) option;
      (* payload of the last Sec_db frame applied, and the database's
         [Status_db.sec_changes] right after it *)
  mutable current_from : string;
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
    current_from = "";
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
      }
    in
    Hashtbl.replace t.decoders from s;
    Metrics.Gauge.set t.transmitters (float_of_int (Hashtbl.length t.decoders));
    s

let record_host (r : Smart_proto.Records.sys_record) =
  r.Smart_proto.Records.report.Smart_proto.Report.host

(* Does the snapshot name exactly [hosts], in order? *)
let rec same_hosts records hosts =
  match (records, hosts) with
  | [], [] -> true
  | r :: records, h :: hosts ->
    String.equal (record_host r) h && same_hosts records hosts
  | _ -> false

(* Frames from a traced push carry the push span's context; the frame
   span adopts it, tying this mirror write to the monitor-side trace
   across the TCP hop. *)
let apply_frame t (frame : Smart_proto.Frame.frame) =
  let frame_span =
    Smart_util.Tracelog.start t.trace
      ~parent:frame.Smart_proto.Frame.trace "receiver.frame"
  in
  let commit_parent = Smart_util.Tracelog.ctx_of frame_span in
  let result =
    match frame.Smart_proto.Frame.payload_type with
    | Smart_proto.Frame.Sys_db ->
      (* the payload is a concatenation of fixed-size sys records (a
         partial one rejects the whole frame); hosts owned by this
         transmitter that are absent from the snapshot have expired on
         the monitor side and leave the mirror too.  The whole snapshot
         is committed as one batched write (one db generation).  A
         snapshot naming the same hosts as the previous one expired
         none; otherwise the absence diff runs through a set, not nested
         lists. *)
      let data = frame.Smart_proto.Frame.data in
      let size = Smart_proto.Records.sys_record_size in
      let n = String.length data / size in
      let rec load i records =
        if i >= n then Ok (List.rev records)
        else
          match Smart_proto.Records.decode_sys t.order data ~pos:(i * size) with
          | Ok record -> load (i + 1) (record :: records)
          | Error m -> Error m
      in
      let loaded =
        if String.length data mod size <> 0 then
          Error
            (Printf.sprintf
               "sys_db: %d bytes are not a whole number of %d-byte records"
               (String.length data) size)
        else load 0 []
      in
      (match loaded with
      | Error m -> Error m
      | Ok records ->
        let commit =
          Smart_util.Tracelog.start t.trace ~parent:commit_parent
            "receiver.commit"
        in
        Status_db.update_sys_many t.db records;
        Smart_util.Tracelog.finish t.trace commit;
        let previous =
          Option.value ~default:[]
            (Hashtbl.find_opt t.owned_hosts t.current_from)
        in
        if not (same_hosts records previous) then begin
          let hosts = List.map record_host records in
          let covered = Hashtbl.create (max 8 n) in
          List.iter (fun h -> Hashtbl.replace covered h ()) hosts;
          List.iter
            (fun host ->
              if not (Hashtbl.mem covered host) then
                Status_db.remove_sys t.db ~host)
            previous;
          Hashtbl.replace t.owned_hosts t.current_from hosts
        end;
        Ok ())
    | Smart_proto.Frame.Net_db ->
      (match Smart_proto.Records.decode_net t.order frame.Smart_proto.Frame.data with
      | Ok record ->
        Status_db.update_net t.db record;
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
  t.current_from <- from;
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
      match (apply_frame t f, acc) with
      | Ok (), _ | _, Error _ -> acc
      | (Error _ as e), Ok () -> e)
    (Ok ()) frames

(* A transmitter connection closed: drop its decoder (partial bytes
   would poison a later stream reusing the tag) and its ownership
   record.  Realnet drivers tag sources per connection, so without this
   the tables grow by one entry per push. *)
let forget_source t ~from =
  Hashtbl.remove t.decoders from;
  Hashtbl.remove t.owned_hosts from;
  Metrics.Gauge.set t.transmitters (float_of_int (Hashtbl.length t.decoders))

let frames_handled t = Metrics.Counter.value t.frames_total

let digests_handled t = Metrics.Counter.value t.digests_total

let sketches_handled t = Metrics.Counter.value t.sketches_total

let decode_errors t = Metrics.Counter.value t.decode_errors_total

let resyncs t = Metrics.Counter.value t.resyncs_total

let corrupt_bytes t = Metrics.Counter.value t.corrupt_bytes_total
