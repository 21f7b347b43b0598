(** The three status databases (system / network / security) shared
    between monitors, transmitter, receiver and wizard — the in-memory
    stand-in for the thesis's System V shared memory segments.

    The store is versioned: every mutating write bumps a monotonic
    generation counter (sweeps bump it only when something was actually
    removed), so readers can memoize derived views and rebuild them only
    when the data really changed.  Network entries are additionally kept
    in a peer-keyed secondary index, making per-target lookups O(1).
    The columnar snapshot ({!columns}) has one row per system host and
    is rebuilt only when that host set changes; every other write
    refreshes it in place.  The security table is stored as a diff
    ({!replace_sec}): an identical table costs no generation and no
    refresh. *)

type t

(** The columnar snapshot the wizard's bytecode interpreter scans: the
    structure-of-arrays status plane plus the dense-row -> host/IP maps
    (rows are scan order, i.e. sorted by host). *)
type column_view = {
  cols : Smart_lang.Bytecode.columns;
  hosts : string array;
  ips : string array;
}

(** What the last {!columns} call did: served the memoized view,
    refreshed it in place (same system host set), or rebuilt it from
    scratch (a system host joined or left). *)
type refresh = Cached | Refreshed | Rebuilt

val create : unit -> t

(** Monotonic write counter.  Equal generations guarantee identical
    contents; readers key caches on it. *)
val generation : t -> int

val update_sys : t -> Smart_proto.Records.sys_record -> unit

(** Store a whole snapshot of system records under a single generation
    bump (the receiver's per-frame write). *)
val update_sys_many : t -> Smart_proto.Records.sys_record list -> unit

val find_sys : t -> host:string -> Smart_proto.Records.sys_record option

(** All system records, sorted by host name (the wizard's scan order).
    Cached per generation: repeated calls on an unchanged database
    return the same (physically equal) list, and every write drops the
    cache. *)
val sys_records : t -> Smart_proto.Records.sys_record list

(** Remove records older than [max_age]; returns how many were dropped. *)
val sweep_sys : t -> now:float -> max_age:float -> int

(** Like {!sweep_sys} but returns the dropped host names (sorted), so
    callers tracking per-host failure history — the sysmon's flap
    quarantine — know exactly who went quiet. *)
val sweep_sys_expired : t -> now:float -> max_age:float -> string list

(** Store [monitor]'s record, replacing its previous one.  The columnar
    snapshot keeps its rows: the next {!columns} call re-fills the
    network columns of every row. *)
val update_net : t -> Smart_proto.Records.net_record -> unit

val find_net : t -> monitor:string -> Smart_proto.Records.net_record option

val net_records : t -> Smart_proto.Records.net_record list

(** Metrics toward [target], resolved through the peer index.  When
    several monitors report the same peer, the freshest [measured_at]
    wins, then the lowest monitor name — deterministic regardless of
    insertion order. *)
val net_entry_for : t -> target:string -> Smart_proto.Records.net_entry option

(** Replace the whole security table.  When a host has several entries,
    the last one wins.  The incoming table is diffed against the stored
    one: an identical table is a no-op (the generation does not move and
    the columnar snapshot stays fresh); otherwise the generation moves
    once, {!sec_changes} grows by one, and only the rows of hosts whose
    level changed, appeared or vanished are rewritten by the next
    {!columns} call. *)
val replace_sec : t -> Smart_proto.Records.sec_record -> unit

(** How many {!replace_sec} calls changed the security table.  Equal
    counts guarantee the same security table, so the receiver can skip
    a byte-identical security frame when no change landed since it
    applied the previous one. *)
val sec_changes : t -> int

val security_level : t -> host:string -> int option

val sec_record : t -> Smart_proto.Records.sec_record

val sys_count : t -> int

(** Drop one server record (used by the receiver's mirror semantics).
    Bumps the generation only if the host was present. *)
val remove_sys : t -> host:string -> unit

(** The columnar snapshot at the current generation, memoized.  Its rows
    are the system hosts, so only a host joining or leaving rebuilds it.
    Otherwise it is refreshed in place: a system update rewrites its own
    row (values and IP), a security write rewrites the rows whose level
    it changed, added or removed, and a network write re-fills the
    network columns of every row.  [net_for] resolves the network
    metrics toward a server host; it is consulted on rebuilds and after
    network writes, so its answers must depend only on the host and
    this database's network table (the wizard's group-aware lookup
    does).  A refreshed view equals the one a rebuild would produce. *)
val columns :
  t ->
  net_for:(string -> Smart_proto.Records.net_entry option) ->
  column_view

(** A one-row {!column_view} holding [host]'s current system record,
    network entry ([net_for host]) and security level — the row
    {!columns} would build for it — without touching the memoized
    snapshot or its refresh bookkeeping.  [None] when [host] has no
    system record. *)
val row_view :
  t ->
  net_for:(string -> Smart_proto.Records.net_entry option) ->
  host:string ->
  column_view option

(** Would {!columns} return the memoized view untouched?  Lets the
    caller skip tracing a snapshot phase that will do no work. *)
val columns_fresh : t -> bool

(** Shard digest of the current columnar snapshot — what a regional
    wizard's transmitter ships up the aggregation tree instead of raw
    records.  [shard] names this wizard in the digest; [net_for]
    resolves network metrics exactly as in {!columns} (the digest is
    derived from that same memoized view, so building it costs one
    column sweep, not a rebuild).  System column ranges cover every row;
    net/sec ranges only rows whose presence flags are set.  The result's
    [generation] equals {!generation}, letting the root detect stale
    digests. *)
val summary :
  t ->
  shard:string ->
  net_for:(string -> Smart_proto.Records.net_entry option) ->
  Smart_proto.Digest.t

(** What the most recent {!columns} call did. *)
val last_refresh : t -> refresh

(** Trace context of the last writer ({!Smart_util.Tracelog.root}
    initially).  The system monitor stamps its ingest span here; the
    transmitter parents its push spans on it so monitor-side traces stay
    connected to the frames that carry the data away. *)
val set_last_trace : t -> Smart_util.Tracelog.ctx -> unit

val last_trace : t -> Smart_util.Tracelog.ctx
