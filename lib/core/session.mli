(** The session plane (DESIGN.md §15): client-side socket state machine
    for long-lived use of the smart socket — a bounded per-peer
    connection pool, keep-alive bookkeeping on the injected clock, and
    mid-session migration when a held server's status falls below the
    session's requirement.

    Sans-IO: this module owns states, metrics ([session.*], see
    OBSERVABILITY.md) and trace spans; its driver (the simulation's
    session workload) performs the connects, transfers and probes and
    reports outcomes back.
    Everything is deterministic — iteration over the pool is sorted, the
    clock is injected, no randomness is drawn. *)

(** {1 The connection pool} *)

(** Per-peer lifecycle.  [Draining] refuses new binds and closes once
    its in-flight work resolves. *)
type conn_state = Connecting | Established | Draining | Closed

(** One pooled connection: at most one per peer host. *)
type conn

type pool

(** [pool ?metrics ?trace ?keepalive_interval ~clock ()] builds a pool
    of 16 entries — a bind finding it full first evicts the least
    recently used idle entry (deterministically: LRU stamp, ties by
    host), which becomes [Closed]; when every entry is busy the pool
    overflows rather than failing, visible in the [session.pool_size]
    gauge.  An entry quiet for [keepalive_interval] (default 5 s) is due
    a probe, and three consecutive misses declare the peer dead.
    [clock] is the engine's virtual clock.  Raises [Invalid_argument]
    on a non-positive [keepalive_interval]. *)
val pool :
  ?metrics:Smart_util.Metrics.t ->
  ?trace:Smart_util.Tracelog.t ->
  ?keepalive_interval:float ->
  clock:(unit -> float) ->
  unit ->
  pool

val conn_host : conn -> string

val conn_state : conn -> conn_state

(** The driver finished the handshake: [Connecting] -> [Established].
    No-op in any other state. *)
val established : pool -> conn -> unit

(** Close immediately and forget the entry, in-flight work and all —
    crash handling.  Work counters on the forgotten record still
    resolve; they just no longer affect the pool. *)
val close : pool -> conn -> unit

(** {1 Sessions} *)

(** [Selecting] = asking the wizard; [Migrating] = replacement being
    established while the old server is still held. *)
type session_state = Idle | Selecting | Active | Migrating

type session

(** A fresh [Idle] session named [name] (bumps the [session.sessions]
    gauge). *)
val session : pool -> name:string -> session

val session_state : session -> session_state

(** The connection the session is bound to, when [Active]/[Migrating]. *)
val session_conn : session -> conn option

(** Completed migrations of this session. *)
val session_migrations : session -> int

(** Work items this session completed. *)
val session_completed : session -> int

(** The session is asking the wizard for a server.  Raises
    [Invalid_argument] when already bound. *)
val selecting : session -> unit

(** [bind pool s ~host ~origin] binds the wizard's pick: reuses the
    pooled connection to [host] when one is live
    ([session.pool_reused_total]) or opens a fresh [Connecting] one
    ([session.pool_opened_total], evicting an idle LRU entry if the pool
    is full).  [origin] is the context of the [client.request] span that
    selected the server; migration spans parent on it.  Session becomes
    [Active].  Raises [Invalid_argument] unless [Idle]/[Selecting]. *)
val bind :
  pool -> session -> host:string -> origin:Smart_util.Tracelog.ctx -> conn

(** {1 Work accounting}

    The driver owns the work items; the pool tracks their counts, so a
    drained connection knows when it is empty and the chaos test can
    assert zero loss. *)

(** A work item went out on [conn] ([session.work_issued_total]). *)
val work_started : pool -> session -> conn -> unit

(** The item completed ([session.work_completed_total]); a draining
    connection whose last item this was closes. *)
val work_done : pool -> session -> conn -> unit

(** The item did not complete on this connection (crash, partition,
    drain cut-over); the driver requeues it for re-issue after migration
    ([session.work_requeued_total]) — requeued, never lost. *)
val work_requeued : pool -> session -> conn -> unit

(** [count] items were abandoned outright ([session.work_lost_total]) —
    the failure budget the chaos acceptance test pins at zero. *)
val work_lost : pool -> count:int -> unit

(** {1 Migration}

    When the session's watcher sees the held server no longer satisfy
    the requirement (status generation moved and re-selection excludes
    it, or the connection died), the driver re-asks the wizard and hands
    over here. *)

(** Start a migration: [Active] -> [Migrating], opens the
    [session.migrate] span parented on the binding's origin context.
    Raises [Invalid_argument] unless [Active]. *)
val begin_migration : pool -> session -> unit

(** The replacement is bound: observes
    [session.migration_latency_seconds] (start to here), bumps
    [session.migrations_total], closes the span, binds [host] (pool
    reuse as in {!bind}) and drains the old connection — its in-flight
    work resolves before it closes.  Returns the new connection.
    Raises [Invalid_argument] unless [Migrating]. *)
val complete_migration :
  pool -> session -> host:string -> origin:Smart_util.Tracelog.ctx -> conn

(** No replacement could be bound (wizard unreachable, admission shed
    the re-ask, nothing qualified): back to [Active] on the held server,
    [session.migration_failures_total] bumped and a
    [session.migrate_failed] instant recorded; the driver backs off
    ({!Smart_util.Backoff}) before retrying. *)
val abandon_migration : pool -> session -> reason:string -> unit

(** Graceful end: release the connection back to the pool (idle entries
    stay pooled for reuse), close any open migration span, back to
    [Idle], [session.sessions] gauge decremented. *)
val retire : pool -> session -> unit

(** {1 Keep-alive}

    The driver probes; the pool decides who is due and keeps the miss
    counts. *)

(** Established entries quiet for at least the keep-alive interval,
    sorted by host — the deterministic probe order. *)
val keepalive_due : pool -> now:float -> conn list

(** A probe went out ([session.keepalive_probes_total]). *)
val keepalive_sent : pool -> conn -> unit

(** The probe was answered: miss count resets, activity stamped. *)
val keepalive_ok : pool -> conn -> unit

(** The probe went unanswered; at the limit the peer is declared dead,
    the entry closed ([session.keepalive_failures_total]) — sessions
    bound to it observe [Closed] and migrate. *)
val keepalive_miss : pool -> conn -> unit
