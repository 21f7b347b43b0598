(* The federation root (DESIGN.md §13): the top of the aggregation tree.
   Clients speak the ordinary wizard protocol to it; behind the scenes it
   fans each request out to the regional (shard) wizards as subqueries,
   merges their ranked candidate lists into exactly the flat ranking, and
   answers once every targeted shard replied or the fan-out deadline
   passed.

   Digest-based routing: shard transmitters ship column-range digests up
   the tree; when a requirement's top-level comparisons are provably
   unsatisfiable against a shard's digest (no server of that shard can
   qualify), the subquery to that shard is skipped.  The analysis is
   conservative — anything it cannot prove keeps the shard in the
   fan-out — and exactly as fresh as the last digest: a skip can miss
   servers that arrived within one digest-uplink interval, the same
   staleness class as the receiver mirror itself. *)

module Metrics = Smart_util.Metrics

type shard = { name : string; addr : Output.address }

type config = {
  shards : shard list;
  fanout_timeout : float;
  routing : bool;
}

(* One client request in flight: the subqueries still awaited and the
   shard replies already collected.  The queue preserves arrival order,
   so deadline sweeps release requests deterministically. *)
type pending = {
  seq : int;  (* root-chosen subquery id, the pending-table key *)
  client : Output.address;
  client_seq : int;
  wanted : int;
  mutable awaiting : int;
  mutable got : (string * Smart_proto.Fed_msg.reply) list;
  deadline : float;
  started : float;
  span : Smart_util.Tracelog.span;
  parent : Smart_util.Tracelog.ctx;
  fanout_span : Smart_util.Tracelog.span;
  mutable done_ : bool;
}

type t = {
  config : config;
  clock : unit -> float;
  trace : Smart_util.Tracelog.t;
  compile_cache :
    ( string,
      (Smart_lang.Ast.program, Smart_lang.Requirement.compile_error) result )
    Smart_util.Lru.t;
  digests : (string, Smart_proto.Digest.t) Hashtbl.t;
  sketches : (string, (string * Smart_util.Sketch.t) list) Hashtbl.t;
      (* latest sketch batch per shard, keyed by shard name *)
  pending : (int, pending) Hashtbl.t;  (* subquery seq -> request *)
  order : pending Queue.t;  (* arrival order, for deadline sweeps *)
  mutable next_seq : int;
  requests_total : Metrics.Counter.t;
  subqueries_total : Metrics.Counter.t;
  fanouts_total : Metrics.Counter.t;
  routed_total : Metrics.Counter.t;
  shards_skipped_total : Metrics.Counter.t;
  shard_replies_total : Metrics.Counter.t;
  timeouts_total : Metrics.Counter.t;
  merges_total : Metrics.Counter.t;
  compile_errors_total : Metrics.Counter.t;
  degraded_replies_total : Metrics.Counter.t;
  pending_gauge : Metrics.Gauge.t;
  request_latency : Metrics.Histogram.t;
  sketch_updates_total : Metrics.Counter.t;
  fed_p50_gauge : Metrics.Gauge.t;
  fed_p95_gauge : Metrics.Gauge.t;
  fed_p99_gauge : Metrics.Gauge.t;
  mutable last_result : string list option;
}

(* The shard-side metric whose sketch the root aggregates into the
   deployment-wide latency gauges. *)
let latency_metric = "wizard.request_latency_seconds"


let create ?(metrics = Metrics.create ()) ?(clock = fun () -> 0.)
    ?(trace = Smart_util.Tracelog.disabled) config =
  if config.fanout_timeout <= 0.0 then
    invalid_arg "Fed_root.create: fanout_timeout must be positive";
  if config.shards = [] then invalid_arg "Fed_root.create: no shards";
  {
    config;
    clock;
    trace;
    compile_cache = Smart_util.Lru.create ~capacity:128;
    digests = Hashtbl.create 8;
    sketches = Hashtbl.create 8;
    pending = Hashtbl.create 16;
    order = Queue.create ();
    next_seq = 1;
    requests_total =
      Metrics.counter metrics ~help:"client requests decoded at the root"
        "federation.requests_total";
    subqueries_total =
      Metrics.counter metrics ~help:"subqueries sent to shard wizards"
        "federation.subqueries_total";
    fanouts_total =
      Metrics.counter metrics
        ~help:"requests fanned out to every shard (no routing cut)"
        "federation.fanouts_total";
    routed_total =
      Metrics.counter metrics
        ~help:"requests whose fan-out was narrowed by digest routing"
        "federation.routed_total";
    shards_skipped_total =
      Metrics.counter metrics
        ~help:"subqueries skipped because a digest proved them empty"
        "federation.shards_skipped_total";
    shard_replies_total =
      Metrics.counter metrics ~help:"shard replies received and matched"
        "federation.shard_replies_total";
    timeouts_total =
      Metrics.counter metrics
        ~help:"requests answered at the fan-out deadline with partial replies"
        "federation.timeouts_total";
    merges_total =
      Metrics.counter metrics ~help:"cross-shard merges performed"
        "federation.merges_total";
    compile_errors_total =
      Metrics.counter metrics
        ~help:"requests whose requirement failed to compile at the root"
        "federation.compile_errors_total";
    degraded_replies_total =
      Metrics.counter metrics
        ~help:"root replies flagged degraded (shard stale or fan-out partial)"
        "federation.degraded_replies_total";
    pending_gauge =
      Metrics.gauge metrics ~help:"client requests awaiting shard replies"
        "federation.pending";
    request_latency =
      Metrics.histogram metrics
        ~help:"root request wall time, seconds (decode to merged reply)"
        "federation.request_latency_seconds";
    sketch_updates_total =
      Metrics.counter metrics
        ~help:"shard sketch batches folded into the root's store"
        "federation.sketch_updates_total";
    fed_p50_gauge =
      Metrics.gauge metrics
        ~help:"deployment-wide request-latency p50, merged shard sketches"
        "federation.fed_latency_p50_s";
    fed_p95_gauge =
      Metrics.gauge metrics
        ~help:"deployment-wide request-latency p95, merged shard sketches"
        "federation.fed_latency_p95_s";
    fed_p99_gauge =
      Metrics.gauge metrics
        ~help:"deployment-wide request-latency p99, merged shard sketches"
        "federation.fed_latency_p99_s";
    last_result = None;
  }

(* Shard digests arrive through the root receiver's digest hook. *)
let note_digest t (d : Smart_proto.Digest.t) =
  Hashtbl.replace t.digests d.Smart_proto.Digest.shard d

(* ------------------------------------------------------------------ *)
(* Sketch plane                                                         *)
(* ------------------------------------------------------------------ *)

(* Deployment-wide request latency: the merge of every shard's latest
   [latency_metric] sketch.  Shards are folded in sorted-name order —
   merge is commutative so the result is order-independent, but the
   fold order being fixed keeps even the PRNG-state combination
   reproducible. *)
let merged_latency t =
  let shards =
    List.sort String.compare
      (Hashtbl.fold (fun shard _ acc -> shard :: acc) t.sketches [])
  in
  List.fold_left
    (fun acc shard ->
      match Hashtbl.find_opt t.sketches shard with
      | None -> acc
      | Some entries ->
        (match List.assoc_opt latency_metric entries with
        | None -> acc
        | Some sk ->
          (match acc with
          | None -> Some (Smart_util.Sketch.copy sk)
          | Some m -> Some (Smart_util.Sketch.merge m sk))))
    None shards

(* Shard sketch batches arrive through the root receiver's sketch hook.
   Every update refreshes the deployment-wide latency gauges from the
   merged view, so a SMART-METRICS scrape of the root always reads
   current federation quantiles. *)
let note_sketches t (batch : Smart_proto.Sketch_msg.t) =
  Hashtbl.replace t.sketches batch.Smart_proto.Sketch_msg.shard
    batch.Smart_proto.Sketch_msg.entries;
  Metrics.Counter.incr t.sketch_updates_total;
  (match merged_latency t with
  | Some m when Smart_util.Sketch.count m > 0 ->
    Metrics.Gauge.set t.fed_p50_gauge (Smart_util.Sketch.quantile m 0.5);
    Metrics.Gauge.set t.fed_p95_gauge (Smart_util.Sketch.quantile m 0.95);
    Metrics.Gauge.set t.fed_p99_gauge (Smart_util.Sketch.quantile m 0.99)
  | Some _ | None -> ());
  Smart_util.Tracelog.instant t.trace "federation.sketch_merge"

(* ------------------------------------------------------------------ *)
(* Digest routing                                                       *)
(* ------------------------------------------------------------------ *)

(* Interval satisfiability of [x op c] for x in [lo, hi]. *)
let interval_sat op ~lo ~hi c =
  match (op : Smart_lang.Ast.cmp_op) with
  | Smart_lang.Ast.Lt -> lo < c
  | Smart_lang.Ast.Le -> lo <= c
  | Smart_lang.Ast.Gt -> hi > c
  | Smart_lang.Ast.Ge -> hi >= c
  | Smart_lang.Ast.Eq -> lo <= c && c <= hi
  | Smart_lang.Ast.Ne -> not (lo = c && hi = c)

let flip op =
  match (op : Smart_lang.Ast.cmp_op) with
  | Smart_lang.Ast.Lt -> Smart_lang.Ast.Gt
  | Smart_lang.Ast.Le -> Smart_lang.Ast.Ge
  | Smart_lang.Ast.Gt -> Smart_lang.Ast.Lt
  | Smart_lang.Ast.Ge -> Smart_lang.Ast.Le
  | Smart_lang.Ast.Eq -> Smart_lang.Ast.Eq
  | Smart_lang.Ast.Ne -> Smart_lang.Ast.Ne

let rec unparen (e : Smart_lang.Ast.expr) =
  match e with Smart_lang.Ast.Paren e -> unparen e | e -> e

(* The digest's range summary for a status variable, if it carries one. *)
let stat_of_var (d : Smart_proto.Digest.t) var =
  match Smart_lang.Bytecode.column_of_var var with
  | None -> None
  | Some col ->
    if col < Smart_lang.Bytecode.sys_field_count then
      Some d.Smart_proto.Digest.sys.(col)
    else if col = Smart_lang.Bytecode.col_net_delay then
      Some d.Smart_proto.Digest.net_delay
    else if col = Smart_lang.Bytecode.col_net_bw then
      Some d.Smart_proto.Digest.net_bw
    else if col = Smart_lang.Bytecode.col_sec_level then
      Some d.Smart_proto.Digest.sec_level
    else None

(* Can some server of the digested shard satisfy [var op c]?  A row
   without the column faults the comparison (and so cannot qualify), so
   the answer is the interval test over the rows that carry it — and
   [false] outright when none do. *)
let constraint_sat d var op c =
  match stat_of_var d var with
  | None -> true  (* not a status variable: no range to test *)
  | Some (stat : Smart_proto.Digest.stat) ->
    stat.Smart_proto.Digest.present > 0
    && interval_sat op ~lo:stat.Smart_proto.Digest.lo
         ~hi:stat.Smart_proto.Digest.hi c

(* Test every analyzable top-level conjunct of one statement.  Only
   [var op constant] comparisons (either operand order, parentheses
   unwrapped) yield constraints; everything else contributes nothing —
   the analysis must never prove more than the evaluator would. *)
let rec conjuncts_sat d (e : Smart_lang.Ast.expr) =
  match unparen e with
  | Smart_lang.Ast.Logic (Smart_lang.Ast.And, a, b) ->
    conjuncts_sat d a && conjuncts_sat d b
  | Smart_lang.Ast.Cmp (op, a, b) ->
    (match (unparen a, unparen b) with
    | Smart_lang.Ast.Var v, Smart_lang.Ast.Number c -> constraint_sat d v op c
    | Smart_lang.Ast.Number c, Smart_lang.Ast.Var v ->
      constraint_sat d v (flip op) c
    | _ -> true)
  | _ -> true

(* A shard can be skipped only when its digest proves some required
   (logical) statement unsatisfiable for every server it holds.  Empty
   shards (zero servers) are skippable for any compilable requirement:
   they have nothing to contribute. *)
let shard_satisfiable d (program : Smart_lang.Ast.program) =
  d.Smart_proto.Digest.servers > 0
  && List.for_all
       (fun (s : Smart_lang.Ast.statement) ->
         (not (Smart_lang.Ast.is_logical s.Smart_lang.Ast.expr))
         || conjuncts_sat d s.Smart_lang.Ast.expr)
       program

(* ------------------------------------------------------------------ *)
(* Request path                                                         *)
(* ------------------------------------------------------------------ *)

let compile t source =
  let key = Smart_lang.Requirement.cache_key source in
  match Smart_util.Lru.find t.compile_cache key with
  | Some result -> result
  | None ->
    let result = Smart_lang.Requirement.compile source in
    Smart_util.Lru.add t.compile_cache key result;
    result

let reply_now t ~parent ~at ~client ~client_seq ~servers ~degraded =
  let span = Smart_util.Tracelog.start t.trace ?at ~parent "federation.reply" in
  if degraded then Metrics.Counter.incr t.degraded_replies_total;
  let reply =
    { Smart_proto.Wizard_msg.seq = client_seq; servers; degraded;
      rejected = false }
  in
  Smart_util.Tracelog.finish t.trace ?at span;
  let data = Smart_proto.Wizard_msg.encode_reply reply in
  [ Output.Udp { dst = client; data } ]

(* Merge the collected shard replies and answer the client.  [partial]
   marks a deadline release; the reply is degraded when the fan-out was
   partial or any shard answered degraded. *)
let finalize t p ~partial =
  p.done_ <- true;
  let finished = t.clock () in
  let at =
    if Smart_util.Tracelog.enabled t.trace then Some finished else None
  in
  Smart_util.Tracelog.finish t.trace ?at p.fanout_span;
  let merge_span =
    Smart_util.Tracelog.start t.trace ?at ~parent:p.parent "federation.merge"
  in
  Metrics.Counter.incr t.merges_total;
  let servers =
    Selection.merge_candidates ~wanted:p.wanted
      (List.map
         (fun (name, (r : Smart_proto.Fed_msg.reply)) ->
           (name, r.Smart_proto.Fed_msg.candidates))
         p.got)
  in
  Smart_util.Tracelog.finish t.trace ?at merge_span;
  let degraded =
    partial
    || List.exists
         (fun (_, (r : Smart_proto.Fed_msg.reply)) ->
           r.Smart_proto.Fed_msg.degraded)
         p.got
  in
  t.last_result <- Some servers;
  let outputs =
    reply_now t ~parent:p.parent ~at ~client:p.client ~client_seq:p.client_seq
      ~servers ~degraded
  in
  Smart_util.Tracelog.finish t.trace ?at p.span;
  Metrics.Histogram.observe t.request_latency (finished -. p.started);
  outputs

(* A client request: compile, route, fan out.  Subqueries carry the
   canonical requirement text, so every shard's compile cache derives
   the same key no matter how the client spelled the requirement. *)
let handle_request t ~now ~from data =
  match Smart_proto.Wizard_msg.decode_request data with
  | Error _ -> []  (* garbage datagram: drop silently *)
  | Ok request ->
    Metrics.Counter.incr t.requests_total;
    let started = t.clock () in
    let span =
      Smart_util.Tracelog.start t.trace ~at:started
        ~parent:request.Smart_proto.Wizard_msg.trace "federation.request"
    in
    let parent = Smart_util.Tracelog.ctx_of span in
    let at =
      if Smart_util.Tracelog.enabled t.trace then Some started else None
    in
    let source = request.Smart_proto.Wizard_msg.requirement in
    (match compile t source with
    | Error _ ->
      Metrics.Counter.incr t.compile_errors_total;
      let outputs =
        reply_now t ~parent ~at ~client:from
          ~client_seq:request.Smart_proto.Wizard_msg.seq ~servers:[]
          ~degraded:false
      in
      Smart_util.Tracelog.finish t.trace ?at span;
      Metrics.Histogram.observe t.request_latency (t.clock () -. started);
      outputs
    | Ok program ->
      let targets =
        if not t.config.routing then t.config.shards
        else
          List.filter
            (fun s ->
              match Hashtbl.find_opt t.digests s.name with
              | None -> true  (* no digest yet: nothing to prove, include *)
              | Some d -> shard_satisfiable d program)
            t.config.shards
      in
      let skipped = List.length t.config.shards - List.length targets in
      if skipped > 0 then begin
        Metrics.Counter.incr t.routed_total;
        Metrics.Counter.incr t.shards_skipped_total ~by:skipped
      end
      else Metrics.Counter.incr t.fanouts_total;
      if targets = [] then begin
        (* every shard provably empty for this requirement *)
        let outputs =
          reply_now t ~parent ~at ~client:from
            ~client_seq:request.Smart_proto.Wizard_msg.seq ~servers:[]
            ~degraded:false
        in
        Smart_util.Tracelog.finish t.trace ?at span;
        Metrics.Histogram.observe t.request_latency (t.clock () -. started);
        outputs
      end
      else begin
        let canonical = Smart_lang.Requirement.canonical source in
        let seq = t.next_seq in
        t.next_seq <- t.next_seq + 1;
        let fanout_span =
          Smart_util.Tracelog.start t.trace ?at ~parent "federation.fanout"
        in
        let fanout_ctx = Smart_util.Tracelog.ctx_of fanout_span in
        let p =
          {
            seq;
            client = from;
            client_seq = request.Smart_proto.Wizard_msg.seq;
            wanted = request.Smart_proto.Wizard_msg.server_num;
            awaiting = List.length targets;
            got = [];
            deadline = now +. t.config.fanout_timeout;
            started;
            span;
            parent;
            fanout_span;
            done_ = false;
          }
        in
        Hashtbl.replace t.pending seq p;
        Queue.add p t.order;
        Metrics.Gauge.set t.pending_gauge
          (float_of_int (Hashtbl.length t.pending));
        Metrics.Counter.incr t.subqueries_total ~by:(List.length targets);
        let query =
          {
            Smart_proto.Fed_msg.seq;
            wanted = request.Smart_proto.Wizard_msg.server_num;
            requirement = canonical;
            trace = fanout_ctx;
          }
        in
        let encoded = Smart_proto.Fed_msg.encode_query query in
        List.map
          (fun s ->
            Output.udp ~host:s.addr.Output.host ~port:s.addr.Output.port
              encoded)
          targets
      end)

(* A shard's subquery reply.  The last awaited reply releases the
   request; stragglers after a deadline release (or duplicates) are
   dropped by the [done_] check. *)
let handle_reply t data =
  match Smart_proto.Fed_msg.decode_reply data with
  | Error _ -> []
  | Ok reply ->
    (match Hashtbl.find_opt t.pending reply.Smart_proto.Fed_msg.seq with
    | None -> []
    | Some p when p.done_ -> []
    | Some p ->
      Metrics.Counter.incr t.shard_replies_total;
      p.got <- (reply.Smart_proto.Fed_msg.shard, reply) :: p.got;
      p.awaiting <- p.awaiting - 1;
      if p.awaiting > 0 then []
      else begin
        Hashtbl.remove t.pending reply.Smart_proto.Fed_msg.seq;
        Metrics.Gauge.set t.pending_gauge
          (float_of_int (Hashtbl.length t.pending));
        finalize t p ~partial:false
      end)

(* Deadline sweep: release requests whose fan-out window closed with
   replies still missing.  The arrival-order queue makes the release
   order deterministic; finished requests just fall off its head. *)
let tick t ~now =
  let outputs = ref [] in
  let continue = ref true in
  while !continue do
    match Queue.peek_opt t.order with
    | Some p when p.done_ -> ignore (Queue.pop t.order)
    | Some p when now >= p.deadline ->
      ignore (Queue.pop t.order);
      Metrics.Counter.incr t.timeouts_total;
      Hashtbl.remove t.pending p.seq;
      Metrics.Gauge.set t.pending_gauge
        (float_of_int (Hashtbl.length t.pending));
      outputs := !outputs @ finalize t p ~partial:true
    | Some _ | None -> continue := false
  done;
  !outputs

let requests_handled t = Metrics.Counter.value t.requests_total

let subqueries_sent t = Metrics.Counter.value t.subqueries_total

let shards_skipped t = Metrics.Counter.value t.shards_skipped_total

let request_latency_summary t = Metrics.histogram_summary t.request_latency

let last_result t = t.last_result
