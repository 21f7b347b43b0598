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
     single status write invalidates everything at once;
   - distributed-mode ticks additionally share a per-tick batch memo,
     so a burst of parked requests carrying the same requirement is
     answered by a single scan even when the LRU has churned. *)

type mode =
  | Centralized
  | Distributed of {
      transmitters : Output.address list;
      freshness_timeout : float;
    }

(* Multi-group deployments (Fig 3.8): the network monitors probe peer
   monitors, not individual servers, so the wizard maps each server to
   its group and binds monitor_network_* from the local group's record
   toward that group.  Servers of the local group get [local_entry]
   ("in the local area network, the bandwidth and delay is sufficient",
   §3.3.3). *)
type groups = {
  local_monitor : string;
  group_of : string -> string option;  (* server host -> group monitor *)
  local_entry : Smart_proto.Records.net_entry;
}

let default_local_entry =
  {
    Smart_proto.Records.peer = "";
    delay = 1e-4;
    bandwidth = 100e6 /. 8.0;  (* nominal switched 100 Mbps Ethernet *)
    measured_at = 0.0;
  }

type config = { mode : mode; groups : groups option }

(* Receiver silence tolerated before replies are flagged degraded. *)
let default_staleness_threshold = infinity

(* Adaptive degraded mode (DESIGN.md §14): instead of the fixed
   threshold, tolerate receiver silence up to [factor] times the
   [quantile] of the observed inter-update gaps, clamped to
   [floor, cap].  Below [min_samples] observed gaps the fixed threshold
   still applies, so a cold wizard behaves exactly like a non-adaptive
   one. *)
type staleness_policy = {
  factor : float;
  quantile : float;
  floor : float;
  cap : float;
  min_samples : int;
}

let default_staleness_policy =
  { factor = 5.0; quantile = 0.99; floor = 0.1; cap = 300.0; min_samples = 8 }

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
  buckets : Smart_net.Shaper.t Smart_util.Lru.t;
      (* per-client token buckets, keyed by the requester's host *)
  delayed : delayed Queue.t;
      (* admitted-late requests waiting for their tokens to accrue *)
  compile_cache :
    (Smart_lang.Requirement.fast, Smart_lang.Requirement.compile_error) result
    Smart_util.Lru.t;
  result_cache : (int * string list) Smart_util.Lru.t;
      (* (generation, servers); stale when the generation moved *)
  scratch : Selection.scratch;
  clock : unit -> float;  (* injected clock for the latency histogram *)
  staleness_threshold : float;
      (* receiver silence beyond this flags replies degraded *)
  staleness_policy : staleness_policy option;
      (* adaptive threshold from inter-update gap quantiles; [None]
         keeps the fixed threshold *)
  mutable staleness_now : float;
      (* the effective threshold [degraded_now] tests; equals
         [staleness_threshold] until the policy adapts it *)
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
  batched_requests_total : Metrics.Counter.t;
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
  mutable subqueries_seen : int;
      (* this instance's subqueries, as [subqueries_total] aggregates
         across every shard wizard sharing the registry *)
  mutable updates_seen : int;
  mutable last_update_at : float option;
      (* clock time of the last receiver update; [None] until fed *)
  mutable last_result : string list option;
}

let create ?(compile_cache_capacity = default_compile_cache_capacity)
    ?(metrics = Metrics.create ()) ?(clock = fun () -> 0.)
    ?(staleness_threshold = default_staleness_threshold) ?staleness_policy
    ?(trace = Smart_util.Tracelog.disabled) ?(shard_name = "") ?admission
    config db =
  if staleness_threshold <= 0.0 then
    invalid_arg "Wizard.create: staleness_threshold must be positive";
  (match admission with
  | Some a ->
    if
      a.rate <= 0.0 || a.burst < 1.0 || a.max_delay < 0.0 || a.max_clients < 1
    then invalid_arg "Wizard.create: bad admission"
  | None -> ());
  (match staleness_policy with
  | Some p ->
    if
      p.factor <= 0.0 || p.floor <= 0.0 || p.cap < p.floor
      || not (p.quantile >= 0.0 && p.quantile <= 1.0)
    then invalid_arg "Wizard.create: bad staleness_policy"
  | None -> ());
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
    staleness_policy;
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
    snapshot_rebuilds_total =
      Metrics.counter metrics ~help:"columnar snapshot full rebuilds"
        "wizard.snapshot_rebuilds_total";
    snapshot_refreshes_total =
      Metrics.counter metrics
        ~help:"columnar snapshot in-place row refreshes"
        "wizard.snapshot_refreshes_total";
    batched_requests_total =
      Metrics.counter metrics
        ~help:"parked requests answered from the per-tick batch memo"
        "wizard.batched_requests_total";
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
    subqueries_seen = 0;
    updates_seen = 0;
    last_update_at = None;
    last_result = None;
  }

(* Receiver update hook: counts applied frames so distributed-mode
   requests know when every transmitter has re-reported.  Under a
   staleness policy each update also feeds the inter-update gap into
   the gap sketch and re-derives the effective threshold from its
   quantile — the control decision is metered
   ([wizard.staleness_threshold_seconds],
   [wizard.staleness_adaptations_total]) and traced as a
   [wizard.staleness_adapt] instant so same-seed runs stay
   byte-identical. *)
let note_update t =
  t.updates_seen <- t.updates_seen + 1;
  let now = t.clock () in
  (match (t.staleness_policy, t.last_update_at) with
  | Some policy, Some prev ->
    let gap = now -. prev in
    if Float.is_finite gap && gap >= 0.0 then
      Smart_util.Sketch.observe t.gap_sketch gap;
    if Smart_util.Sketch.count t.gap_sketch >= policy.min_samples then begin
      let q = Smart_util.Sketch.quantile t.gap_sketch policy.quantile in
      let candidate =
        Float.min policy.cap (Float.max policy.floor (policy.factor *. q))
      in
      if not (Float.equal candidate t.staleness_now) then begin
        t.staleness_now <- candidate;
        Metrics.Gauge.set t.staleness_threshold_gauge candidate;
        Metrics.Counter.incr t.staleness_adaptations_total;
        Smart_util.Tracelog.instant t.trace "wizard.staleness_adapt"
      end
    end
  | (Some _ | None), _ -> ());
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

let staleness_threshold_now t = t.staleness_now

(* Network metrics toward one server: direct measurements in flat
   deployments, group-level measurements (local monitor -> server's
   group monitor) in multi-group ones. *)
let net_for t ~host =
  match t.config.groups with
  | None -> Status_db.net_entry_for t.db ~target:host
  | Some { local_monitor; group_of; local_entry } ->
    (match group_of host with
    | None -> Status_db.net_entry_for t.db ~target:host
    | Some group when String.equal group local_monitor ->
      Some { local_entry with Smart_proto.Records.peer = host }
    | Some group ->
      (match Status_db.find_net t.db ~monitor:local_monitor with
      | None -> None
      | Some record ->
        List.find_opt
          (fun (e : Smart_proto.Records.net_entry) ->
            String.equal e.Smart_proto.Records.peer group)
          record.Smart_proto.Records.entries))

let net_lookup t host = net_for t ~host

(* Exposed so a shard's digest uplink summarizes the columnar snapshot
   with exactly the bindings this wizard selects with. *)
let net_entry_for t ~host = net_for t ~host

(* The columnar snapshot at the current generation.  [Status_db.columns]
   does the memoized/refresh/rebuild work; this wrapper adds the trace
   span (only when there is actual work to record) and the counters. *)
let server_columns t ~parent =
  if Status_db.columns_fresh t.db then
    Status_db.columns t.db ~net_for:(net_lookup t)
  else begin
    let span =
      Smart_util.Tracelog.start t.trace ~parent "wizard.snapshot"
    in
    let view = Status_db.columns t.db ~net_for:(net_lookup t) in
    (match Status_db.last_refresh t.db with
    | Status_db.Rebuilt -> Metrics.Counter.incr t.snapshot_rebuilds_total
    | Status_db.Refreshed ->
      Metrics.Counter.incr t.snapshot_refreshes_total
    | Status_db.Cached -> ());
    Smart_util.Tracelog.finish t.trace span;
    view
  end

let compile t ~parent ~key source =
  match Smart_util.Lru.find t.compile_cache key with
  | Some result ->
    Metrics.Counter.incr t.compile_cache_hits_total;
    result
  | None ->
    (* only an actual lex+parse+compile earns a parse span: cache hits
       do no front-end work worth a tree node *)
    let span = Smart_util.Tracelog.start t.trace ~parent "wizard.parse" in
    Metrics.Counter.incr t.compile_cache_misses_total;
    let result = Smart_lang.Requirement.compile_fast source in
    Smart_util.Lru.add t.compile_cache key result;
    Smart_util.Tracelog.finish t.trace span;
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
  let outputs =
    [
      Output.udp ~host:from.Output.host ~port:from.Output.port
        (Smart_proto.Wizard_msg.encode_reply reply);
    ]
  in
  Smart_util.Tracelog.finish t.trace ?at span;
  outputs

(* The selected servers for (requirement, wanted) at the current
   generation — memoized because selection is a pure function of the
   snapshot, the program and the count.  [None] means the requirement
   did not compile.  [batch] is a per-tick memo shared by a burst of
   parked requests: unlike the LRU it cannot churn, so each distinct
   requirement is scanned at most once per tick. *)
(* The uncached scan: columnar snapshot + one bytecode pass. *)
let select_scan t ~parent ~fast ~wanted =
  let view = server_columns t ~parent in
  let span = Smart_util.Tracelog.start t.trace ~parent "wizard.select" in
  let servers = Selection.select_columns t.scratch ~fast ~view ~wanted in
  Smart_util.Tracelog.finish t.trace span;
  servers

(* An uncached compile still earns its parse span and miss count. *)
let compile_fresh t ~parent source =
  let span = Smart_util.Tracelog.start t.trace ~parent "wizard.parse" in
  Metrics.Counter.incr t.compile_cache_misses_total;
  let result = Smart_lang.Requirement.compile_fast source in
  Smart_util.Tracelog.finish t.trace span;
  result

let select_cached t ~parent ?batch ~source ~wanted () =
  match batch with
  | None when Smart_util.Lru.capacity t.result_cache = 0 ->
    (* caching disabled (capacity 0): the pre-cache request path is
       exactly compile + scan, so skip key derivation entirely — token
       canonicalization would cost more than the cache could save *)
    Metrics.Counter.incr t.result_cache_misses_total;
    (match compile_fresh t ~parent source with
    | Error _ -> None
    | Ok fast -> Some (select_scan t ~parent ~fast ~wanted))
  | _ ->
  let ckey = Smart_lang.Requirement.cache_key source in
  let key = string_of_int wanted ^ "\x00" ^ ckey in
  match
    (match batch with Some b -> Hashtbl.find_opt b key | None -> None)
  with
  | Some servers ->
    Metrics.Counter.incr t.batched_requests_total;
    servers
  | None ->
    let generation = Status_db.generation t.db in
    let servers =
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
    in
    (match batch with Some b -> Hashtbl.replace b key servers | None -> ());
    servers

(* The request span adopts the context carried in the request datagram,
   so the wizard's parse/snapshot/select/reply internals appear as
   children of the requesting client's span. *)
let process t ?batch (request : Smart_proto.Wizard_msg.request) ~from =
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
      select_cached t ~parent ?batch
        ~source:request.Smart_proto.Wizard_msg.requirement
        ~wanted:request.Smart_proto.Wizard_msg.server_num ()
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
  | Distributed { transmitters; freshness_timeout } ->
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
  [
    Output.udp ~host:from.Output.host ~port:from.Output.port
      (Smart_proto.Wizard_msg.encode_reply
         {
           Smart_proto.Wizard_msg.seq = request.Smart_proto.Wizard_msg.seq;
           servers = [];
           degraded = false;
           rejected = true;
         });
  ]

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
    t.subqueries_seen <- t.subqueries_seen + 1;
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
    let outputs =
      [
        Output.udp ~host:from.Output.host ~port:from.Output.port
          (Smart_proto.Fed_msg.encode_reply reply);
      ]
    in
    let finished = t.clock () in
    Smart_util.Tracelog.finish t.trace ~at:finished span;
    let elapsed = finished -. started in
    Metrics.Histogram.observe t.request_latency elapsed;
    if Float.is_finite elapsed then
      Smart_util.Sketch.observe t.latency_sketch elapsed;
    outputs

(* Flush distributed-mode requests whose data is fresh (all transmitters
   re-reported) or whose deadline passed.  Replies go out in arrival
   order; the shared batch memo means a burst of identical requirements
   costs one snapshot scan regardless of LRU churn. *)
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
  released
  @
  match ready with
  | [] -> []
  | ready ->
    let batch = Hashtbl.create 16 in
    List.concat_map (fun p -> process t ~batch p.request ~from:p.from) ready

let pending_count t = Queue.length t.pending

let requests_handled t = Metrics.Counter.value t.requests_total

let compile_errors t = Metrics.Counter.value t.compile_errors_total

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

let batched_requests t = Metrics.Counter.value t.batched_requests_total

let request_latency_summary t = Metrics.histogram_summary t.request_latency

let degraded_replies t = Metrics.Counter.value t.degraded_replies_total

let admission_rejected t = Metrics.Counter.value t.admission_rejected_total

let admission_delayed t = Metrics.Counter.value t.admission_delayed_total

let delayed_count t = Queue.length t.delayed

let subqueries_handled t = t.subqueries_seen

let latency_sketch t = t.latency_sketch

let staleness_adaptations t = Metrics.Counter.value t.staleness_adaptations_total

let last_result t = t.last_result
