(** The federation root (DESIGN.md §13): the top of the aggregation
    tree.  Clients speak the ordinary wizard protocol to it; it fans
    each request out to the regional (shard) wizards as
    {!Smart_proto.Fed_msg} subqueries, merges the ranked shard replies
    with {!Selection.merge_candidates} into exactly the ranking a flat
    wizard over the union database would produce, and answers once every
    targeted shard replied or the fan-out deadline passed (a partial
    merge is flagged degraded).

    Digest routing: shard transmitters ship {!Smart_proto.Digest} column
    ranges up the tree; a shard whose digest proves a requirement's
    top-level comparisons unsatisfiable for every server it holds is
    skipped.  The analysis is conservative — anything it cannot prove
    keeps the shard in the fan-out — and exactly as fresh as the last
    digest received. *)

type t

(** One regional wizard: its digest/reply identity and the address of
    its federation port. *)
type shard = { name : string; addr : Output.address }

type config = {
  shards : shard list;  (** the regional wizards, non-empty *)
  fanout_timeout : float;
      (** seconds a request waits for shard replies before answering
          with whatever arrived (degraded) *)
  routing : bool;  (** skip shards whose digest proves them empty *)
}

(** [create ?metrics ?clock ?trace config] builds a root, caching the
    compiled programs of 128 requirement texts.  [metrics] receives the
    [federation.*] instruments (see OBSERVABILITY.md); by default a
    private registry is used.
    [clock] feeds [federation.request_latency_seconds] (the engine's
    virtual clock in simulation).  [trace] records a
    [federation.request] span per request with [federation.fanout]
    (whose context rides in the subqueries, parenting the shard-side
    [wizard.subquery] spans), [federation.merge] and [federation.reply]
    children.  Raises [Invalid_argument] on an empty shard list or a
    non-positive [fanout_timeout]. *)
val create :
  ?metrics:Smart_util.Metrics.t ->
  ?clock:(unit -> float) ->
  ?trace:Smart_util.Tracelog.t ->
  config ->
  t

(** Record a shard digest (wire the root receiver's
    {!Receiver.set_digest_hook} here).  The latest digest per shard name
    wins. *)
val note_digest : t -> Smart_proto.Digest.t -> unit

(** The shard metric name whose merged sketch feeds the
    [federation.fed_latency_p{50,95,99}_s] gauges:
    ["wizard.request_latency_seconds"]. *)
val latency_metric : string

(** Record a shard's sketch batch (wire the root receiver's
    {!Receiver.set_sketch_hook} here).  The latest batch per shard name
    wins; every update re-merges {!latency_metric} across shards (the
    {!Smart_util.Sketch.merge} of each shard's latest sketch, folded in
    sorted shard-name order) and refreshes the
    [federation.fed_latency_p{50,95,99}_s] gauges, so a [SMART-METRICS]
    scrape of the root always reads current deployment-wide quantiles,
    each within the merged sketch's {!Smart_util.Sketch.err_weight} rank
    error of the exact percentile over the union of all shards'
    observations.  Counted in
    [federation.sketch_updates_total]; traced as a
    [federation.sketch_merge] instant. *)
val note_sketches : t -> Smart_proto.Sketch_msg.t -> unit

(** Handle a client request datagram ({!Smart_proto.Wizard_msg.request})
    from [from] at driver time [now]: returns the subquery datagrams for
    the targeted shards, or the immediate (empty) reply when the
    requirement does not compile or every shard is provably empty.
    Subqueries carry {!Smart_lang.Requirement.canonical} requirement
    text, so each shard's compile cache derives the same key no matter
    how the client spelled the requirement. *)
val handle_request :
  t -> now:float -> from:Output.address -> string -> Output.t list

(** Handle a shard's subquery reply datagram
    ({!Smart_proto.Fed_msg.reply}).  The last awaited reply releases the
    client's merged answer; unmatched, duplicate and post-deadline
    replies are dropped. *)
val handle_reply : t -> string -> Output.t list

(** Deadline sweep at driver time [now]: answer requests whose fan-out
    window closed with replies still missing (merged from what arrived,
    flagged degraded, counted in [federation.timeouts_total]). *)
val tick : t -> now:float -> Output.t list

(** Client requests decoded over the root's lifetime. *)
val requests_handled : t -> int

(** Subqueries sent to shard wizards. *)
val subqueries_sent : t -> int

(** Subqueries skipped because a digest proved the shard empty for the
    requirement. *)
val shards_skipped : t -> int

(** The [federation.request_latency_seconds] histogram in one read. *)
val request_latency_summary : t -> Smart_util.Metrics.histogram_summary

(** Server list of the most recent merged reply. *)
val last_result : t -> string list option
