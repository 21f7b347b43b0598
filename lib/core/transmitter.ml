(* The transmitter (§3.5.1): snapshots the monitor-side databases into
   three [type,size,data] frames and ships them to the receiver over a
   reliable stream.

   Centralized mode pushes on every tick; distributed mode stays passive
   and answers explicit pull requests from the wizard.

   Delivery failures (the driver could not reach the receiver) feed a
   bounded resend queue with exponential backoff: the failed payload is
   kept, ticks go quiet until the retry time, then the queue drains
   ahead of fresh pushes.  A success resets the backoff. *)

module Metrics = Smart_util.Metrics

type mode = Centralized | Distributed

let pull_request_magic = "SMART-PULL"

(* Failed payloads kept for resending; the oldest drop first. *)
let resend_capacity = 8

type config = {
  mode : mode;
  order : Smart_proto.Endian.order;  (* must match the receiver's *)
  receiver : Output.address;
}

type t = {
  config : config;
  db : Status_db.t;
  monitor_name : string;
  summary : (unit -> Smart_proto.Digest.t) option;
      (* digest uplink: ship one Digest_db frame per push instead of the
         three database snapshots (a regional wizard feeding the
         federation root) *)
  sketches : (unit -> (string * Smart_util.Sketch.t) list) option;
      (* quantile sketches riding the same uplink as one
         Sketch_db frame per push when non-empty *)
  sketch_source : string;
      (* shard/monitor name stamped into the Sketch_db payload *)
  crc : bool;  (* append CRC-32 trailers to emitted frames *)
  trace : Smart_util.Tracelog.t;
  resend : string Queue.t;  (* encoded stream payloads awaiting resend *)
  backoff : Smart_util.Backoff.t;
  mutable retry_at : float option;  (* quiet until then after a failure *)
  pushes_total : Metrics.Counter.t;
  bytes_total : Metrics.Counter.t;
  frames_total : Metrics.Counter.t;
  pulls_total : Metrics.Counter.t;
  send_failures_total : Metrics.Counter.t;
  resends_total : Metrics.Counter.t;
  resend_dropped_total : Metrics.Counter.t;
  resend_queue_gauge : Metrics.Gauge.t;
  digest_pushes_total : Metrics.Counter.t;
  sketch_pushes_total : Metrics.Counter.t;
}

let create ?(metrics = Metrics.create ())
    ?(trace = Smart_util.Tracelog.disabled) ?(crc = false) ?summary ?sketches
    ?(sketch_source = "") ~monitor_name config db =
  {
    config;
    db;
    monitor_name;
    summary;
    sketches;
    sketch_source;
    crc;
    trace;
    resend = Queue.create ();
    backoff = Smart_util.Backoff.create Smart_util.Backoff.default;
    retry_at = None;
    pushes_total =
      Metrics.counter metrics ~help:"database snapshots shipped"
        "transmitter.pushes_total";
    bytes_total =
      Metrics.counter metrics ~help:"encoded frame bytes shipped"
        "transmitter.bytes_total";
    frames_total =
      Metrics.counter metrics ~help:"frames shipped (three per push)"
        "transmitter.frames_total";
    pulls_total =
      Metrics.counter metrics ~help:"distributed-mode pull requests honoured"
        "transmitter.pulls_total";
    send_failures_total =
      Metrics.counter metrics ~help:"stream deliveries reported failed"
        "transmitter.send_failures_total";
    resends_total =
      Metrics.counter metrics ~help:"queued payloads re-sent after backoff"
        "transmitter.resends_total";
    resend_dropped_total =
      Metrics.counter metrics
        ~help:"queued payloads dropped by the resend bound (oldest first)"
        "transmitter.resend_dropped_total";
    resend_queue_gauge =
      Metrics.gauge metrics ~help:"payloads waiting in the resend queue"
        "transmitter.resend_queue";
    digest_pushes_total =
      Metrics.counter metrics
        ~help:"pushes that shipped a federation digest instead of snapshots"
        "transmitter.digest_pushes_total";
    sketch_pushes_total =
      Metrics.counter metrics
        ~help:"pushes that also shipped a quantile-sketch batch"
        "transmitter.sketch_pushes_total";
  }

let snapshot_db_frames ~trace t =
  let order = t.config.order in
  let sys_data =
    String.concat ""
      (List.map
         (Smart_proto.Records.encode_sys order)
         (Status_db.sys_records t.db))
  in
  let net_data =
    match Status_db.find_net t.db ~monitor:t.monitor_name with
    | Some record -> Smart_proto.Records.encode_net order record
    | None ->
      Smart_proto.Records.encode_net order
        { Smart_proto.Records.monitor = t.monitor_name; entries = [] }
  in
  let sec_data =
    Smart_proto.Records.encode_sec order (Status_db.sec_record t.db)
  in
  [
    { Smart_proto.Frame.payload_type = Smart_proto.Frame.Sys_db; data = sys_data;
      trace };
    { Smart_proto.Frame.payload_type = Smart_proto.Frame.Net_db; data = net_data;
      trace };
    { Smart_proto.Frame.payload_type = Smart_proto.Frame.Sec_db; data = sec_data;
      trace };
  ]

(* Sketch batch frame, when the uplink carries one and it is non-empty.
   It rides behind whatever frames the push already ships, through the
   same resend/backoff machinery. *)
let sketch_frames ~trace t =
  match t.sketches with
  | None -> []
  | Some sketches ->
    (match sketches () with
    | [] -> []
    | entries ->
      Metrics.Counter.incr t.sketch_pushes_total;
      [
        {
          Smart_proto.Frame.payload_type = Smart_proto.Frame.Sketch_db;
          data =
            Smart_proto.Sketch_msg.encode t.config.order
              { Smart_proto.Sketch_msg.shard = t.sketch_source; entries };
          trace;
        };
      ])

let frames ~trace t =
  (match t.summary with
  | Some summary ->
    (* digest uplink: the shard's whole status plane compressed into one
       frame; the resend/backoff machinery below treats it like any
       other payload *)
    Metrics.Counter.incr t.digest_pushes_total;
    [
      {
        Smart_proto.Frame.payload_type = Smart_proto.Frame.Digest_db;
        data = Smart_proto.Digest.encode t.config.order (summary ());
        trace;
      };
    ]
  | None -> snapshot_db_frames ~trace t)
  @ sketch_frames ~trace t

let snapshot_frames t = frames ~trace:Smart_util.Tracelog.root t

(* The push span is parented on the database's last writer (typically a
   [sysmon.ingest] span), and its own context rides in the frames — this
   is the hop that carries the report pipeline's trace from the monitor
   machine to the wizard machine. *)
let push t =
  let span =
    Smart_util.Tracelog.start t.trace
      ~parent:(Status_db.last_trace t.db) "transmitter.push"
  in
  let frames = frames ~trace:(Smart_util.Tracelog.ctx_of span) t in
  let encoded =
    String.concat ""
      (List.map (Smart_proto.Frame.encode ~crc:t.crc t.config.order) frames)
  in
  Metrics.Counter.incr t.pushes_total;
  Metrics.Counter.incr t.frames_total ~by:(List.length frames);
  Metrics.Counter.incr t.bytes_total ~by:(String.length encoded);
  Smart_util.Tracelog.finish t.trace span;
  [
    Output.stream ~host:t.config.receiver.Output.host
      ~port:t.config.receiver.Output.port encoded;
  ]

(* The driver reports a stream delivery it could not complete.  The
   payload joins the bounded resend queue (oldest entries fall out — a
   newer snapshot supersedes them anyway) and the next attempt waits out
   an exponential backoff. *)
let note_send_failure t ~now ~data =
  Metrics.Counter.incr t.send_failures_total;
  Smart_util.Tracelog.instant t.trace "transmitter.send_failure";
  Queue.add data t.resend;
  while Queue.length t.resend > resend_capacity do
    ignore (Queue.pop t.resend);
    Metrics.Counter.incr t.resend_dropped_total
  done;
  Metrics.Gauge.set t.resend_queue_gauge
    (float_of_int (Queue.length t.resend));
  t.retry_at <- Some (now +. Smart_util.Backoff.next t.backoff)

(* The driver reports a completed stream delivery: the receiver is
   reachable again, so the backoff resets. *)
let note_send_ok t =
  Smart_util.Backoff.reset t.backoff;
  t.retry_at <- None

let backing_off t ~now =
  match t.retry_at with Some at -> now < at | None -> false

(* Drain the resend queue into stream outputs (one attempt each; a
   failure re-queues through [note_send_failure]). *)
let drain_resend t =
  let outputs = ref [] in
  while not (Queue.is_empty t.resend) do
    let data = Queue.pop t.resend in
    Metrics.Counter.incr t.resends_total;
    outputs :=
      Output.stream ~host:t.config.receiver.Output.host
        ~port:t.config.receiver.Output.port data
      :: !outputs
  done;
  Metrics.Gauge.set t.resend_queue_gauge 0.0;
  List.rev !outputs

(* Periodic tick: quiet while backing off after a failure; otherwise
   queued resends first, then (centralized mode) a fresh push. *)
let tick t ~now =
  if backing_off t ~now then []
  else begin
    t.retry_at <- None;
    let resends = drain_resend t in
    match t.config.mode with
    | Centralized -> resends @ push t
    | Distributed -> resends
  end

(* Distributed-mode pull request (a datagram on the transmitter port). *)
let handle_pull t ~data =
  match t.config.mode with
  | Distributed when String.equal data pull_request_magic ->
    Metrics.Counter.incr t.pulls_total;
    push t
  | Distributed -> []
  | Centralized -> []
