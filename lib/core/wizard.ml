(* The wizard (§3.6.1): a daemon answering user requests on its UDP
   service port.

   Centralized mode answers straight from the receiver-maintained
   databases.  Distributed mode first pulls fresh snapshots from every
   transmitter, parks the request, and answers when the data has arrived
   (or a freshness deadline passes).

   The request path runs on the columnar status snapshot and the
   requirement bytecode:

   - requirements compile (lex, parse, bytecode) into a bounded LRU
     keyed by the token-canonical source, so repeated requests skip the
     front end entirely and reuse one preallocated interpreter state;
   - the status databases maintain a structure-of-arrays snapshot
     ([Status_db.columns]) memoized on the generation — writes refresh
     it in place, and only a system host joining or leaving rebuilds
     it;
   - selection is one bytecode pass over that snapshot
     ([Selection.select_columns]) reusing a per-wizard scratch;
   - whole selection results are memoized in a second LRU keyed by
     (requirement, wanted) and validated against the generation:
     selection is a pure function of the snapshot, so serving the
     memoized result while the generation is unchanged is exact, and a
     single status write invalidates everything at once. *)

type mode = Centralized | Distributed of Output.address list

(* A distributed-mode request waits this long for fresh snapshots. *)
let freshness_timeout = 2.0

(* Multi-group deployments (Fig 3.8): the network monitors probe peer
   monitors, not individual servers, so the wizard maps each server to
   its group and binds monitor_network_* from the local group's record
   toward that group.  Servers of the local group get [local_entry]
   ("in the local area network, the bandwidth and delay is sufficient",
   §3.3.3). *)
type groups = {
  local_monitor : string;
  group_of : string -> string option;  (* server host -> group monitor *)
}

let local_entry =
  {
    Smart_proto.Records.peer = "";
    delay = 1e-4;
    bandwidth = 100e6 /. 8.0;  (* nominal switched 100 Mbps Ethernet *)
    measured_at = 0.0;
  }

type config = { mode : mode; groups : groups option }

(* The network entry a server's row reads: direct measurements in flat
   deployments, group-level measurements (local monitor -> server's
   group monitor) in multi-group ones, and the nominal local entry for
   the wizard's own group.  The database re-fills a row's network
   columns only after a write to that entry, so [group_of] must not
   change once the wizard exists. *)
let net_key groups host =
  match groups with
  | None -> Status_db.Peer host
  | Some { local_monitor; group_of } ->
    (match group_of host with
    | None -> Status_db.Peer host
    | Some group when String.equal group local_monitor ->
      Status_db.Fixed { local_entry with Smart_proto.Records.peer = host }
    | Some group -> Status_db.Peer_of { monitor = local_monitor; peer = group })

(* Receiver silence tolerated before replies are flagged degraded. *)
let default_staleness_threshold = infinity

(* Adaptive degraded mode (DESIGN.md §14): instead of the fixed
   threshold, tolerate receiver silence up to [gap_factor] times the
   [gap_quantile] of the observed inter-update gaps, clamped to
   [gap_floor, gap_cap] seconds.  Below [gap_samples] observed gaps the
   fixed threshold still applies, so a cold wizard behaves exactly like
   a non-adaptive one. *)
let gap_factor = 5.0

let gap_quantile = 0.99

let gap_floor = 0.1

let gap_cap = 300.0

let gap_samples = 8

let default_compile_cache_capacity = 128

(* Admission control (DESIGN.md §15): a per-client token bucket gates
   the request port so sustained overload sheds fairly instead of
   collapsing.  Each client host gets a bucket refilling at [rate]
   requests per second with [burst] depth; a request finding the bucket
   dry is parked until its tokens accrue when that wait is at most
   [max_delay], and rejected (reply carries the rejected flag, no
   tokens consumed) beyond that.  [max_clients] bounds the bucket
   table — the LRU forgets the least recently offending client, which
   merely refills its bucket. *)
type admission = {
  rate : float;        (* sustained requests per second per client *)
  burst : float;       (* bucket depth, in requests *)
  max_delay : float;   (* park at most this long before rejecting *)
  max_clients : int;   (* per-client buckets tracked *)
}

let default_admission =
  { rate = 50.0; burst = 10.0; max_delay = 0.25; max_clients = 1024 }

type pending = {
  from : Output.address;
  request : Smart_proto.Wizard_msg.request;
  deadline : float;
  target_updates : int;  (* value of [updates_seen] that releases it *)
}

type delayed = {
  d_from : Output.address;
  d_request : Smart_proto.Wizard_msg.request;
  release_at : float;  (* when the client's tokens have accrued *)
}

module Metrics = Smart_util.Metrics

type t = {
  config : config;
  shard_name : string;  (* identity stamped on federation subquery replies *)
  db : Status_db.t;
  pending : pending Queue.t;
  admission : admission option;
  buckets : (string, Smart_net.Shaper.t) Smart_util.Lru.t;
      (* per-client token buckets, keyed by the requester's host *)
  delayed : delayed Queue.t;
      (* admitted-late requests waiting for their tokens to accrue *)
  compile_cache :
    ( string,
      (Smart_lang.Requirement.fast, Smart_lang.Requirement.compile_error)
      result )
    Smart_util.Lru.t;
  result_cache : (int * string, int * string list) Smart_util.Lru.t;
      (* (wanted, canonical text) -> (generation, servers); stale when
         the generation moved *)
  scratch : Selection.scratch;
  clock : unit -> float;  (* injected clock for the latency histogram *)
  staleness_threshold : float;
      (* receiver silence beyond this flags replies degraded *)
  adaptive_staleness : bool;
      (* adaptive threshold from inter-update gap quantiles; [false]
         keeps the fixed threshold *)
  mutable staleness_now : float;
      (* the effective threshold [degraded_now] tests; equals
         [staleness_threshold] until the gaps adapt it *)
  gap_sketch : Smart_util.Sketch.t;
      (* inter-update gaps observed by [note_update] *)
  latency_sketch : Smart_util.Sketch.t;
      (* per-instance subquery latency, shipped up the federation
         uplink.  Deliberately NOT the registry histogram's sketch:
         shard wizards share one deployment registry, and the root must
         merge per-shard distributions, not one shared one.  Only
         subqueries feed it, since only shards ship it and shards only
         answer subqueries. *)
  trace : Smart_util.Tracelog.t;
  requests_total : Metrics.Counter.t;
  compile_errors_total : Metrics.Counter.t;
  snapshot_rebuilds_total : Metrics.Counter.t;
  snapshot_refreshes_total : Metrics.Counter.t;
  updates_total : Metrics.Counter.t;
  compile_cache_hits_total : Metrics.Counter.t;
  compile_cache_misses_total : Metrics.Counter.t;
  result_cache_hits_total : Metrics.Counter.t;
  result_cache_misses_total : Metrics.Counter.t;
  pending_gauge : Metrics.Gauge.t;
  admission_rejected_total : Metrics.Counter.t;
  admission_delayed_total : Metrics.Counter.t;
  degraded_replies_total : Metrics.Counter.t;
  subqueries_total : Metrics.Counter.t;
  request_latency : Metrics.Histogram.t;
  staleness_threshold_gauge : Metrics.Gauge.t;
  staleness_adaptations_total : Metrics.Counter.t;
  reply_bytes_total : Metrics.Counter.t;
  mutable updates_seen : int;
  mutable last_update_at : float option;
      (* clock time of the last receiver update; [None] until fed *)
  mutable last_result : string list option;
}

let create ?(compile_cache_capacity = default_compile_cache_capacity)
    ?(metrics = Metrics.create ()) ?(clock = fun () -> 0.)
    ?(staleness_threshold = default_staleness_threshold)
    ?(adaptive_staleness = false) ?(trace = Smart_util.Tracelog.disabled)
    ?(shard_name = "") ?admission config db =
  if staleness_threshold <= 0.0 then
    invalid_arg "Wizard.create: staleness_threshold must be positive";
  (match admission with
  | Some a ->
    if
      a.rate <= 0.0 || a.burst < 1.0 || a.max_delay < 0.0 || a.max_clients < 1
    then invalid_arg "Wizard.create: bad admission"
  | None -> ());
  Status_db.set_net_key db (net_key config.groups);
  (* counted by the database, so a refresh or rebuild that a shard
     digest's [Status_db.summary] does before this wizard reads is
     counted too *)
  let snapshot_rebuilds_total =
    Metrics.counter metrics ~help:"columnar snapshot full rebuilds"
      "wizard.snapshot_rebuilds_total"
  and snapshot_refreshes_total =
    Metrics.counter metrics ~help:"columnar snapshot in-place row refreshes"
      "wizard.snapshot_refreshes_total"
  and rows_rewritten =
    Metrics.counter metrics
      ~help:"columnar snapshot rows rewritten by in-place refreshes"
      "wizard.snapshot_rows_rewritten_total"
  in
  Status_db.set_refresh_hook db (function
    | Status_db.Rebuilt -> Metrics.Counter.incr snapshot_rebuilds_total
    | Status_db.Refreshed rows ->
      Metrics.Counter.incr snapshot_refreshes_total;
      Metrics.Counter.add rows_rewritten rows);
  (* sketch PRNG seeds derive from the shard identity so same-seed runs
     are byte-identical and distinct shards use distinct streams *)
  let seeded tag =
    Smart_util.Sketch.create
      ~rng:
        (Smart_util.Prng.create
           ~seed:(Smart_util.Crc32.string (tag ^ ":" ^ shard_name)))
      ()
  in
  {
    staleness_threshold;
    adaptive_staleness;
    staleness_now = staleness_threshold;
    gap_sketch = seeded "wizard.staleness";
    latency_sketch = seeded "wizard.latency";
    config;
    shard_name;
    db;
    pending = Queue.create ();
    admission;
    buckets =
      Smart_util.Lru.create
        ~capacity:
          (match admission with Some a -> a.max_clients | None -> 0);
    delayed = Queue.create ();
    compile_cache = Smart_util.Lru.create ~capacity:compile_cache_capacity;
    result_cache = Smart_util.Lru.create ~capacity:compile_cache_capacity;
    scratch = Selection.scratch ();
    clock;
    trace;
    requests_total =
      Metrics.counter metrics ~help:"requests decoded and answered"
        "wizard.requests_total";
    compile_errors_total =
      Metrics.counter metrics ~help:"requests whose requirement failed to compile"
        "wizard.compile_errors_total";
    snapshot_rebuilds_total;
    snapshot_refreshes_total;
    updates_total =
      Metrics.counter metrics ~help:"receiver frames observed via the update hook"
        "wizard.updates_total";
    compile_cache_hits_total =
      Metrics.counter metrics ~help:"requirement compile cache hits"
        "wizard.compile_cache_hits_total";
    compile_cache_misses_total =
      Metrics.counter metrics ~help:"requirement compile cache misses"
        "wizard.compile_cache_misses_total";
    result_cache_hits_total =
      Metrics.counter metrics ~help:"selection results served from cache"
        "wizard.result_cache_hits_total";
    result_cache_misses_total =
      Metrics.counter metrics
        ~help:"selection results recomputed (cold or stale generation)"
        "wizard.result_cache_misses_total";
    pending_gauge =
      Metrics.gauge metrics ~help:"distributed-mode requests parked"
        "wizard.pending";
    admission_rejected_total =
      Metrics.counter metrics
        ~help:"requests shed by admission control (rejected reply sent)"
        "wizard.admission_rejected_total";
    admission_delayed_total =
      Metrics.counter metrics
        ~help:"requests parked by admission control until tokens accrued"
        "wizard.admission_delayed_total";
    degraded_replies_total =
      Metrics.counter metrics
        ~help:"replies served from a stale snapshot (receiver feed quiet)"
        "wizard.degraded_replies_total";
    subqueries_total =
      Metrics.counter metrics
        ~help:"federation subqueries answered by this shard wizard"
        "federation.shard_subqueries_total";
    request_latency =
      Metrics.histogram metrics
        ~help:"request processing wall time, seconds (decode to reply)"
        "wizard.request_latency_seconds";
    staleness_threshold_gauge =
      Metrics.gauge metrics
        ~help:"effective degraded-mode staleness threshold, seconds"
        "wizard.staleness_threshold_seconds";
    staleness_adaptations_total =
      Metrics.counter metrics
        ~help:"adaptive staleness-threshold changes"
        "wizard.staleness_adaptations_total";
    reply_bytes_total =
      Metrics.counter metrics
        ~help:"bytes of answers and rejections sent from the request port"
        "wizard.reply_bytes_total";
    updates_seen = 0;
    last_update_at = None;
    last_result = None;
  }

(* Receiver update hook: counts applied frames so distributed-mode
   requests know when every transmitter has re-reported.  Under adaptive
   staleness each update also feeds the inter-update gap into
   the gap sketch and re-derives the effective threshold from its
   quantile — the control decision is metered
   ([wizard.staleness_threshold_seconds],
   [wizard.staleness_adaptations_total]) and traced as a
   [wizard.staleness_adapt] instant so same-seed runs stay
   byte-identical. *)
let note_update t =
  t.updates_seen <- t.updates_seen + 1;
  let now = t.clock () in
  (match t.last_update_at with
  | Some prev when t.adaptive_staleness ->
    let gap = now -. prev in
    if Float.is_finite gap && gap >= 0.0 then
      Smart_util.Sketch.observe t.gap_sketch gap;
    if Smart_util.Sketch.count t.gap_sketch >= gap_samples then begin
      let q = Smart_util.Sketch.quantile t.gap_sketch gap_quantile in
      let candidate =
        Float.min gap_cap (Float.max gap_floor (gap_factor *. q))
      in
      if not (Float.equal candidate t.staleness_now) then begin
        t.staleness_now <- candidate;
        Metrics.Gauge.set t.staleness_threshold_gauge candidate;
        Metrics.Counter.incr t.staleness_adaptations_total;
        Smart_util.Tracelog.instant t.trace "wizard.staleness_adapt"
      end
    end
  | Some _ | None -> ());
  t.last_update_at <- Some now;
  Metrics.Counter.incr t.updates_total

(* Degraded mode: the receiver feed has been quiet longer than the
   staleness threshold, so the answer comes from the last good snapshot
   and says so.  A database that was never receiver-fed (centralized
   single-process setups, direct test population) is not stale — there
   is no feed to have gone quiet. *)
let degraded_now t =
  match t.last_update_at with
  | None -> false
  | Some ts -> t.clock () -. ts > t.staleness_now


(* Network metrics toward one server: the entry its key names.  A
   shard's digest uplink summarizes the columnar snapshot with exactly
   these bindings. *)
let net_entry_for t ~host =
  Status_db.key_entry t.db (net_key t.config.groups host)

(* The columnar snapshot at the current generation.  [Status_db.columns]
   does the memoized/refresh/rebuild work, and its hook counts it; this
   wrapper adds the trace span, only when there is actual work to
   record. *)
let server_columns t ~parent =
  let net_for host = net_entry_for t ~host in
  if Status_db.columns_fresh t.db then Status_db.columns t.db ~net_for
  else begin
    let span =
      Smart_util.Tracelog.start t.trace ~parent "wizard.snapshot"
    in
    let view = Status_db.columns t.db ~net_for in
    Smart_util.Tracelog.finish t.trace span;
    view
  end

(* An actual lex+parse+compile: only this earns a parse span and a
   compile-cache miss, since cache hits do no front-end work worth a
   tree node.  Uncached requests call it directly. *)
let compile_fresh t ~parent source =
  let span = Smart_util.Tracelog.start t.trace ~parent "wizard.parse" in
  Metrics.Counter.incr t.compile_cache_misses_total;
  let result = Smart_lang.Requirement.compile_fast source in
  Smart_util.Tracelog.finish t.trace span;
  result

let compile t ~parent ~key source =
  match Smart_util.Lru.find t.compile_cache key with
  | Some result ->
    Metrics.Counter.incr t.compile_cache_hits_total;
    result
  | None ->
    let result = compile_fresh t ~parent source in
    Smart_util.Lru.add t.compile_cache key result;
    result

let reply_to t (request : Smart_proto.Wizard_msg.request) ~parent ~at ~from
    ~servers =
  (* [at] is the request span's start timestamp, reused for the whole
     (µs-scale) reply span: a dedicated clock read would cost as much
     as the span body *)
  let span = Smart_util.Tracelog.start t.trace ~parent ?at "wizard.reply" in
  let degraded = degraded_now t in
  if degraded then begin
    Metrics.Counter.incr t.degraded_replies_total;
    Smart_util.Tracelog.instant t.trace ~parent "wizard.degraded"
  end;
  let reply =
    {
      Smart_proto.Wizard_msg.seq = request.Smart_proto.Wizard_msg.seq;
      servers;
      degraded;
      rejected = false;
    }
  in
  let data = Smart_proto.Wizard_msg.encode_reply reply in
  Metrics.Counter.add t.reply_bytes_total (String.length data);
  (* addressed to [from] itself, so a daemon can tell a reply to the
     datagram's sender from any other output *)
  let outputs = [ Output.Udp { dst = from; data } ] in
  Smart_util.Tracelog.finish t.trace ?at span;
  outputs

(* The uncached scan: columnar snapshot + one bytecode pass. *)
let select_scan t ~parent ~fast ~wanted =
  let view = server_columns t ~parent in
  let span = Smart_util.Tracelog.start t.trace ~parent "wizard.select" in
  let servers = Selection.select_columns t.scratch ~fast ~view ~wanted in
  Smart_util.Tracelog.finish t.trace span;
  servers

(* The selected servers for (requirement, wanted) at the current
   generation — memoized because selection is a pure function of the
   snapshot, the program and the count.  [None] means the requirement
   did not compile. *)
let select_cached t ~parent ~source ~wanted =
  if Smart_util.Lru.capacity t.result_cache = 0 then begin
    (* caching disabled (capacity 0): the pre-cache request path is
       exactly compile + scan, so skip key derivation entirely — token
       canonicalization would cost more than the cache could save *)
    Metrics.Counter.incr t.result_cache_misses_total;
    match compile_fresh t ~parent source with
    | Error _ -> None
    | Ok fast -> Some (select_scan t ~parent ~fast ~wanted)
  end
  else
    let ckey = Smart_lang.Requirement.cache_key source in
    let key = (wanted, ckey) in
    let generation = Status_db.generation t.db in
    match Smart_util.Lru.find t.result_cache key with
    | Some (g, servers) when g = generation ->
      Metrics.Counter.incr t.result_cache_hits_total;
      Some servers
    | Some _ | None ->
      Metrics.Counter.incr t.result_cache_misses_total;
      (match compile t ~parent ~key:ckey source with
      | Error _ -> None
      | Ok fast ->
        let servers = select_scan t ~parent ~fast ~wanted in
        Smart_util.Lru.add t.result_cache key (generation, servers);
        Some servers)

(* The request span adopts the context carried in the request datagram,
   so the wizard's parse/snapshot/select/reply internals appear as
   children of the requesting client's span. *)
let process t (request : Smart_proto.Wizard_msg.request) ~from =
  Metrics.Counter.incr t.requests_total;
  let started = t.clock () in
  let span =
    Smart_util.Tracelog.start t.trace ~at:started
      ~parent:request.Smart_proto.Wizard_msg.trace "wizard.request"
  in
  let parent = Smart_util.Tracelog.ctx_of span in
  let at =
    if Smart_util.Tracelog.enabled t.trace then Some started else None
  in
  let outputs =
    match
      select_cached t ~parent
        ~source:request.Smart_proto.Wizard_msg.requirement
        ~wanted:request.Smart_proto.Wizard_msg.server_num
    with
    | None ->
      Metrics.Counter.incr t.compile_errors_total;
      reply_to t request ~parent ~at ~from ~servers:[]
    | Some servers ->
      t.last_result <- Some servers;
      reply_to t request ~parent ~at ~from ~servers
  in
  let finished = t.clock () in
  Smart_util.Tracelog.finish t.trace ~at:finished span;
  Metrics.Histogram.observe t.request_latency (finished -. started);
  outputs

(* Dispatch an admitted request into the answering machinery. *)
let dispatch t ~now ~from request =
  match t.config.mode with
  | Centralized -> process t request ~from
  | Distributed transmitters ->
    (* one push = three frames per transmitter *)
    let target_updates = t.updates_seen + (3 * List.length transmitters) in
    Queue.add
      { from; request; deadline = now +. freshness_timeout; target_updates }
      t.pending;
    Metrics.Gauge.set t.pending_gauge (float_of_int (Queue.length t.pending));
    List.map
      (fun (addr : Output.address) ->
        Output.udp ~host:addr.Output.host ~port:addr.Output.port
          Transmitter.pull_request_magic)
      transmitters

(* The rejection reply: empty server list, rejected flag set, no tokens
   consumed.  The degraded flag stays clear — rejection means the wizard
   never looked at the snapshot. *)
let reject t (request : Smart_proto.Wizard_msg.request) ~from =
  Metrics.Counter.incr t.admission_rejected_total;
  Smart_util.Tracelog.instant t.trace
    ~parent:request.Smart_proto.Wizard_msg.trace "wizard.admission_reject";
  let data =
    Smart_proto.Wizard_msg.encode_reply
      {
        Smart_proto.Wizard_msg.seq = request.Smart_proto.Wizard_msg.seq;
        servers = [];
        degraded = false;
        rejected = true;
      }
  in
  Metrics.Counter.add t.reply_bytes_total (String.length data);
  [ Output.Udp { dst = from; data } ]

let bucket_for t (a : admission) key =
  match Smart_util.Lru.find t.buckets key with
  | Some bucket -> bucket
  | None ->
    let bucket = Smart_net.Shaper.create ~burst:a.burst ~rate:a.rate () in
    Smart_util.Lru.add t.buckets key bucket;
    bucket

let handle_request t ~now ~from data =
  match Smart_proto.Wizard_msg.decode_request data with
  | Error _ -> []  (* garbage datagram: drop silently like a real daemon *)
  | Ok request ->
    (match t.admission with
    | None -> dispatch t ~now ~from request
    | Some a ->
      let bucket = bucket_for t a from.Output.host in
      (* peek first: a rejected request must not consume tokens, or shed
         clients would drive the bucket into debt and starve themselves
         (and the bucket) forever *)
      let departure = Smart_net.Shaper.peek bucket ~now ~size:1 in
      if departure <= now then begin
        ignore (Smart_net.Shaper.admit bucket ~now ~size:1);
        dispatch t ~now ~from request
      end
      else if departure -. now <= a.max_delay then begin
        ignore (Smart_net.Shaper.admit bucket ~now ~size:1);
        Metrics.Counter.incr t.admission_delayed_total;
        Smart_util.Tracelog.instant t.trace
          ~parent:request.Smart_proto.Wizard_msg.trace
          "wizard.admission_delay";
        Queue.add
          { d_from = from; d_request = request; release_at = departure }
          t.delayed;
        []
      end
      else reject t request ~from)

(* Federation subquery (regional wizard side): same compile cache, same
   columnar scan, but the answer keeps each candidate's merge key so the
   root can interleave shard lists into the flat ranking.  The root
   forwards the canonical requirement text, which is a fixpoint of
   [Requirement.cache_key] — so a subquery triggered by any spelling of
   a requirement this shard has already compiled hits the cache.  The
   subquery span parents on the context carried in the query, tying the
   shard-side work into the root's fan-out trace. *)
let handle_subquery t ~from data =
  match Smart_proto.Fed_msg.decode_query data with
  | Error _ -> []  (* garbage datagram: drop, like the request port *)
  | Ok query ->
    Metrics.Counter.incr t.subqueries_total;
    let started = t.clock () in
    let span =
      Smart_util.Tracelog.start t.trace ~at:started
        ~parent:query.Smart_proto.Fed_msg.trace "wizard.subquery"
    in
    let parent = Smart_util.Tracelog.ctx_of span in
    let source = query.Smart_proto.Fed_msg.requirement in
    let ckey = Smart_lang.Requirement.cache_key source in
    let candidates =
      match compile t ~parent ~key:ckey source with
      | Error _ ->
        Metrics.Counter.incr t.compile_errors_total;
        []
      | Ok fast ->
        let view = server_columns t ~parent in
        let sel =
          Smart_util.Tracelog.start t.trace ~parent "wizard.select"
        in
        let candidates =
          Selection.select_scored t.scratch ~fast ~view
            ~wanted:query.Smart_proto.Fed_msg.wanted
        in
        Smart_util.Tracelog.finish t.trace sel;
        candidates
    in
    let degraded = degraded_now t in
    if degraded then Metrics.Counter.incr t.degraded_replies_total;
    let reply =
      {
        Smart_proto.Fed_msg.seq = query.Smart_proto.Fed_msg.seq;
        shard = t.shard_name;
        generation = Status_db.generation t.db;
        degraded;
        candidates;
      }
    in
    let data = Smart_proto.Fed_msg.encode_reply reply in
    let outputs = [ Output.Udp { dst = from; data } ] in
    let finished = t.clock () in
    Smart_util.Tracelog.finish t.trace ~at:finished span;
    let elapsed = finished -. started in
    Metrics.Histogram.observe t.request_latency elapsed;
    if Float.is_finite elapsed then
      Smart_util.Sketch.observe t.latency_sketch elapsed;
    outputs

(* Flush distributed-mode requests whose data is fresh (all transmitters
   re-reported) or whose deadline passed.  Replies go out in arrival
   order; a tick runs at one generation, so the result cache answers a
   burst of identical requests with one snapshot scan. *)
let tick t ~now =
  (* admission-delayed requests whose tokens have accrued re-enter the
     ordinary dispatch (a distributed-mode wizard then parks them again,
     this time for freshness) in arrival order *)
  let released =
    if Queue.is_empty t.delayed then []
    else begin
      let held = List.of_seq (Queue.to_seq t.delayed) in
      Queue.clear t.delayed;
      let ready, waiting =
        List.partition (fun d -> now >= d.release_at) held
      in
      List.iter (fun d -> Queue.add d t.delayed) waiting;
      List.concat_map
        (fun d -> dispatch t ~now ~from:d.d_from d.d_request)
        ready
    end
  in
  let parked = List.of_seq (Queue.to_seq t.pending) in
  Queue.clear t.pending;
  let ready, waiting =
    List.partition
      (fun p -> t.updates_seen >= p.target_updates || now >= p.deadline)
      parked
  in
  List.iter (fun p -> Queue.add p t.pending) waiting;
  Metrics.Gauge.set t.pending_gauge (float_of_int (Queue.length t.pending));
  released @ List.concat_map (fun p -> process t p.request ~from:p.from) ready

let pending_count t = Queue.length t.pending

(* Stats come from the wizard's own counters, not the LRU internals:
   the capacity-0 bypass never consults the LRU yet still counts its
   compiles as misses. *)
let compile_cache_stats t =
  ( Metrics.Counter.value t.compile_cache_hits_total,
    Metrics.Counter.value t.compile_cache_misses_total )

let result_cache_stats t =
  ( Metrics.Counter.value t.result_cache_hits_total,
    Metrics.Counter.value t.result_cache_misses_total )

let snapshot_rebuilds t = Metrics.Counter.value t.snapshot_rebuilds_total

let snapshot_refreshes t = Metrics.Counter.value t.snapshot_refreshes_total

let request_latency_summary t = Metrics.histogram_summary t.request_latency

let admission_delayed t = Metrics.Counter.value t.admission_delayed_total

let delayed_count t = Queue.length t.delayed

let latency_sketch t = t.latency_sketch

let shard_name t = t.shard_name

let last_result t = t.last_result
