(** The wizard (§3.6.1): decodes user requests, evaluates the requirement
    against the status databases, and replies with a candidate server
    list.  Distributed mode pulls fresh snapshots first. *)

(** Answering strategy: [Centralized] replies straight from the
    receiver-maintained mirror; [Distributed] first pulls fresh
    snapshots from every transmitter it lists and parks the request
    until the data arrives or 2 s pass. *)
type mode = Centralized | Distributed of Output.address list

(** Multi-group deployments (Fig 3.8): map servers to their group
    monitor and bind monitor_network_* from the local group's mesh
    record toward that group.  Local-group servers get the §3.3.3 LAN
    assumption: 0.1 ms and 100 Mbps. *)
type groups = {
  local_monitor : string;  (** the wizard's own group's monitor *)
  group_of : string -> string option;
      (** server host -> its group's monitor, [None] when unknown; fixed
          once the wizard exists, which hands the database each server's
          network key ({!Status_db.set_net_key}) when it is created *)
}

type config = {
  mode : mode;  (** centralized or distributed answering *)
  groups : groups option;  (** [None] for flat single-group deployments *)
}

type t

(** Compiled requirements kept in the LRU compile cache (128). *)
val default_compile_cache_capacity : int

(** Receiver silence tolerated before replies are flagged degraded;
    the default ([infinity]) never degrades. *)
val default_staleness_threshold : float

(** Admission control (DESIGN.md §15): a per-client token bucket on the
    request port, so sustained overload sheds fairly instead of
    collapsing.  Each requesting host refills at [rate] requests/second
    with [burst] depth.  A request finding its bucket dry is parked until
    its tokens accrue when that wait is at most [max_delay] (released by
    {!tick}, counted in [wizard.admission_delayed_total]); beyond that it
    is rejected — the reply carries the
    {!Smart_proto.Wizard_msg.reply}[.rejected] flag, no tokens are
    consumed, and [wizard.admission_rejected_total] is bumped.
    [max_clients] bounds the bucket table (LRU). *)
type admission = {
  rate : float;  (** sustained requests per second per client, > 0 *)
  burst : float;  (** bucket depth in requests, >= 1 *)
  max_delay : float;  (** park at most this long before rejecting *)
  max_clients : int;  (** per-client buckets tracked, >= 1 *)
}

(** rate 50 req/s, burst 10, max_delay 0.25 s, max_clients 1024. *)
val default_admission : admission

(** [create ?compile_cache_capacity ?metrics ?clock config db] builds a
    wizard answering from [db].  [compile_cache_capacity] bounds the
    requirement compile cache; 0 disables it (every request
    recompiles).  [metrics] receives the [wizard.*] instruments,
    including the [wizard.request_latency_seconds] histogram (see
    OBSERVABILITY.md); by default a private registry is used.  [clock]
    supplies the time the latency histogram is measured with — the
    engine's virtual clock in simulation, [Unix.gettimeofday] in the
    realnet daemon.  The default is a constant clock (the histogram
    records zeros): this module is sans-IO and never reads real time
    itself.  [trace] records a [wizard.request] span per request
    (parented on the context the request datagram carries) with
    [wizard.parse] (compile-cache misses only), [wizard.snapshot]
    (rebuilds only), [wizard.select] and [wizard.reply] children;
    defaults to {!Smart_util.Tracelog.disabled}.

    [staleness_threshold] (seconds, default {!default_staleness_threshold})
    arms degraded mode: once the receiver feed has been quiet longer
    than this, replies still answer from the last good snapshot but
    carry the [degraded] flag, bump [wizard.degraded_replies_total] and
    record a [wizard.degraded] trace instant.  A database never fed
    through {!note_update} is not considered stale.

    [adaptive_staleness] (default off) switches degraded mode to an
    adaptive threshold (DESIGN.md §14) derived from the observed
    inter-update gap distribution: each {!note_update} feeds the gap
    since the previous update into a deterministic quantile sketch
    ({!Smart_util.Sketch}); once 8 gaps have been seen, the effective
    threshold becomes 5 times the sketch's q99, clamped to
    [[0.1 s, 300 s]].  The fixed [staleness_threshold] applies until
    then.  Every change of the effective threshold is metered
    ([wizard.staleness_threshold_seconds] gauge,
    [wizard.staleness_adaptations_total] counter) and traced as a
    [wizard.staleness_adapt] instant.

    [shard_name] (default [""]) is this wizard's identity in a
    federation: it is stamped on every {!handle_subquery} reply so the
    root can attribute candidates and digests to the shard, and it
    seeds the wizard's sketch PRNGs so same-seed runs stay
    byte-identical.

    [admission] (default off) arms per-client token-bucket admission
    control on the request port; see {!admission}.  Federation
    subqueries ({!handle_subquery}) are never gated — the root is a
    trusted peer, not a client. *)
val create :
  ?compile_cache_capacity:int ->
  ?metrics:Smart_util.Metrics.t ->
  ?clock:(unit -> float) ->
  ?staleness_threshold:float ->
  ?adaptive_staleness:bool ->
  ?trace:Smart_util.Tracelog.t ->
  ?shard_name:string ->
  ?admission:admission ->
  config ->
  Status_db.t ->
  t

(** Called by the receiver for every applied frame. *)
val note_update : t -> unit

(** The network metrics this wizard binds [monitor_network_*] from for
    one server host (direct measurements in flat deployments,
    group-level ones in multi-group deployments).  A shard's digest
    uplink uses this as {!Status_db.summary}'s [net_for], so the
    advertised column ranges cover exactly the values selection
    compares. *)
val net_entry_for :
  t -> host:string -> Smart_proto.Records.net_entry option

(** Handle a request datagram from [from]; returns the reply (centralized)
    or the pull requests (distributed). *)
val handle_request :
  t -> now:float -> from:Output.address -> string -> Output.t list

(** Handle a federation subquery datagram ({!Smart_proto.Fed_msg.query})
    from the root wizard: compile through the shared cache (the root
    forwards the canonical requirement text, so any spelling already
    seen on the request port hits), run the scored columnar scan
    ({!Selection.select_scored}) and reply with this shard's ranked
    candidates, generation and degraded flag.  Counted in
    [federation.shard_subqueries_total]; the [wizard.subquery] span
    parents on the trace context carried in the query. *)
val handle_subquery : t -> from:Output.address -> string -> Output.t list

(** Release distributed-mode requests whose data is fresh or timed out. *)
val tick : t -> now:float -> Output.t list

(** Distributed-mode requests currently parked. *)
val pending_count : t -> int

(** Requirement compile cache [(hits, misses)]. *)
val compile_cache_stats : t -> int * int

(** Selection result cache [(hits, misses)].  A hit means the reply was
    served without recompiling or rescanning anything; entries are
    invalidated wholesale by any database generation change. *)
val result_cache_stats : t -> int * int

(** How many times the columnar snapshot was rebuilt from scratch,
    counted by the database's refresh hook whichever read did it (a
    shard digest's {!Status_db.summary} included); stays flat across
    requests while the database generation is unchanged, and in-place
    system updates refresh rows instead (see {!snapshot_refreshes}). *)
val snapshot_rebuilds : t -> int

(** How many times the columnar snapshot was refreshed in place (only
    the rows writes marked rewritten, no rebuild), counted like
    {!snapshot_rebuilds}; the rows themselves are counted in
    [wizard.snapshot_rows_rewritten_total]. *)
val snapshot_refreshes : t -> int

(** The [wizard.request_latency_seconds] histogram in one read:
    count/sum/min/max plus nearest-rank p50/p95/p99. *)
val request_latency_summary : t -> Smart_util.Metrics.histogram_summary

(** Requests parked by admission control until their tokens accrued. *)
val admission_delayed : t -> int

(** Admission-delayed requests currently parked (released by {!tick}). *)
val delayed_count : t -> int

(** Server list of the most recent successful selection. *)
val last_result : t -> string list option

(** This wizard's private sketch of its {!handle_subquery} latencies
    (the registry's [wizard.request_latency_seconds] may be shared
    across shard wizards in simulation; this sketch never is).  Requests
    answered by {!handle_request} do not feed it: only federation shards
    ship it, and shards answer only subqueries.  Ship it up the
    federation uplink under {!Fed_root.latency_metric} via the
    transmitter's [sketches] callback. *)
val latency_sketch : t -> Smart_util.Sketch.t

(** The [shard_name] this wizard was created with ([""] outside a
    federation). *)
val shard_name : t -> string
