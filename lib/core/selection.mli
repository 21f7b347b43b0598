(** Pure server-selection algorithm of the wizard (§3.6.1, Fig 1.4):
    evaluate the compiled requirement over the rows of the columnar
    status snapshot, exclude blacklisted hosts, order preferred hosts
    first, cut to the requested count.

    The scan is cut-aware.  Eligible rows go into bounded top-[k]
    buffers, [k] the cut, so a scan allocates nothing per row.  A
    requirement with neither [order_by] nor a preferred host is answered
    by its first [k] eligible rows, and the scan stops there.

    Extension (the paper's Ch. 6 "3 servers with largest memory"): a
    requirement assigning the temp variable [order_by] ranks the
    candidates by that expression's per-server value, descending, e.g.
    [order_by = host_memory_free]. *)

(** Does row [row] of [view] pass [fast]: every logical statement true,
    and no [user_denied_hostN] naming the host (by name or IP)?  This is
    the eligibility rule {!select_columns} applies to every row; the
    session watcher uses it to re-check one held server against a
    {!Status_db.row_view}.  Runs in [fast]'s preallocated state. *)
val qualifies :
  fast:Smart_lang.Requirement.fast ->
  view:Status_db.column_view ->
  row:int ->
  bool

(** Reusable buffers for {!select_columns}: the two bounded top-[k]
    row buffers and the sweep plan's verdict bytes, grown only when the
    snapshot outgrows them.  One per wizard. *)
type scratch

val scratch : unit -> scratch

(** Evaluate the compiled requirement over the columnar snapshot in one
    cut-aware pass and return the selected host names, best first.  Past
    the reply itself, a call allocates nothing that grows with the
    snapshot.  The test suite holds this to a list-based reference
    selection over the tree-walking evaluator with a differential
    property. *)
val select_columns :
  scratch ->
  fast:Smart_lang.Requirement.fast ->
  view:Status_db.column_view ->
  wanted:int ->
  string list

(** {1 Federation}

    A regional (shard) wizard answers a root subquery with
    {!select_scored}: the same cut-aware columnar scan as
    {!select_columns}, but each candidate carries the ordering
    information the root needs — the preference rank for preferred
    hosts, the [order_by] key for the rest (NaN when the ranking
    expression produced no comparable value, [neg_infinity] when the
    program has no [order_by] at all).  The root combines per-shard
    lists with {!merge_candidates}. *)

(** Shard-local scored selection: the best [wanted] candidates of this
    shard under the same total order {!select_columns} uses, with their
    merge keys.  The list is the shard-local prefix of the global
    candidate order, which is what makes {!merge_candidates} exact. *)
val select_scored :
  scratch ->
  fast:Smart_lang.Requirement.fast ->
  view:Status_db.column_view ->
  wanted:int ->
  Smart_proto.Fed_msg.candidate list

(** Total order on candidates replicating the flat wizard's ranking:
    preferred hosts first by rank ascending, then [order_by] key
    descending with NaN after every real key, host name breaking all
    remaining ties.  Exposed for tests. *)
val compare_candidates :
  Smart_proto.Fed_msg.candidate -> Smart_proto.Fed_msg.candidate -> int

(** [merge_candidates ~wanted shards] merges per-shard
    [(shard_name, candidates)] lists into the final ranked host list:
    the best [wanted] hosts under {!compare_candidates}, duplicates
    (possible only when shards overlap) keeping their best-ordered
    entry.  Deterministic in shard-reply arrival order: shards are
    sorted by name and every tie falls to the host name.  When the
    shards partition the server population, the result equals what a
    flat wizard over the union database selects (the test suite pins
    this with a differential property). *)
val merge_candidates :
  wanted:int ->
  (string * Smart_proto.Fed_msg.candidate list) list ->
  string list
