(* The session plane (DESIGN.md §15): the client-side socket state
   machine that makes the smart socket actually smart.

   The paper's API (§3.6) hands the application a connected socket and
   forgets it.  Long-lived clients need the opposite: a bounded pool of
   per-peer connections (the socket-store pattern: every peer has one
   entry walking Connecting -> Established -> Draining -> Closed),
   keep-alive bookkeeping on the injected clock, LRU reuse with
   deterministic eviction, and mid-session *migration* — when a held
   server's status drops below the session's requirement, the driver
   re-asks the wizard, binds the replacement here, and the old
   connection drains its in-flight work before closing.

   Sans-IO like every core component: this module owns only the state
   machine, the metrics and the trace spans.  Its driver (the
   simulation's session workload) performs the connects, sends and
   keep-alive probes, and reports outcomes back.
   The clock is injected, every iteration over the connection table is
   sorted, and nothing here draws randomness — same-seed runs are
   byte-identical. *)

module Metrics = Smart_util.Metrics

type conn_state = Connecting | Established | Draining | Closed

type conn = {
  host : string;
  mutable state : conn_state;
  mutable refs : int;        (* sessions currently bound to this conn *)
  mutable in_flight : int;   (* work items issued and not yet resolved *)
  mutable last_used : int;   (* monotonic stamp; LRU eviction order *)
  mutable last_activity : float;  (* clock time of last send/receive *)
  mutable misses : int;      (* consecutive unanswered keep-alives *)
}

type pool = {
  keepalive_interval : float;
  clock : unit -> float;
  trace : Smart_util.Tracelog.t;
  conns : (string, conn) Hashtbl.t;  (* peer host -> its one entry *)
  mutable stamp : int;
  (* instruments *)
  opened_total : Metrics.Counter.t;
  reused_total : Metrics.Counter.t;
  evicted_total : Metrics.Counter.t;
  size_gauge : Metrics.Gauge.t;
  keepalive_probes_total : Metrics.Counter.t;
  keepalive_failures_total : Metrics.Counter.t;
  sessions_gauge : Metrics.Gauge.t;
  migrations_total : Metrics.Counter.t;
  migration_failures_total : Metrics.Counter.t;
  migration_latency : Metrics.Histogram.t;
  work_issued_total : Metrics.Counter.t;
  work_completed_total : Metrics.Counter.t;
  work_requeued_total : Metrics.Counter.t;
  work_lost_total : Metrics.Counter.t;
}

(* Entries before a bind evicts an idle one, and the consecutive
   keep-alive misses that declare a peer dead. *)
let capacity = 16

let keepalive_limit = 3

let pool ?(metrics = Metrics.create ())
    ?(trace = Smart_util.Tracelog.disabled) ?(keepalive_interval = 5.0) ~clock
    () =
  if keepalive_interval <= 0.0 then
    invalid_arg "Session.pool: keepalive_interval must be positive";
  {
    keepalive_interval;
    clock;
    trace;
    conns = Hashtbl.create 16;
    stamp = 0;
    opened_total =
      Metrics.counter metrics ~help:"connections opened"
        "session.pool_opened_total";
    reused_total =
      Metrics.counter metrics ~help:"binds served by a pooled connection"
        "session.pool_reused_total";
    evicted_total =
      Metrics.counter metrics ~help:"idle connections evicted (LRU)"
        "session.pool_evicted_total";
    size_gauge =
      Metrics.gauge metrics ~help:"connections currently pooled"
        "session.pool_size";
    keepalive_probes_total =
      Metrics.counter metrics ~help:"keep-alive probes sent"
        "session.keepalive_probes_total";
    keepalive_failures_total =
      Metrics.counter metrics
        ~help:"connections closed after consecutive missed keep-alives"
        "session.keepalive_failures_total";
    sessions_gauge =
      Metrics.gauge metrics ~help:"sessions currently open" "session.sessions";
    migrations_total =
      Metrics.counter metrics ~help:"completed mid-session migrations"
        "session.migrations_total";
    migration_failures_total =
      Metrics.counter metrics
        ~help:"migration attempts abandoned (no replacement bound)"
        "session.migration_failures_total";
    migration_latency =
      Metrics.histogram metrics
        ~help:"seconds from migration start to replacement bound"
        "session.migration_latency_seconds";
    work_issued_total =
      Metrics.counter metrics ~help:"work items issued (re-issues included)"
        "session.work_issued_total";
    work_completed_total =
      Metrics.counter metrics ~help:"work items completed"
        "session.work_completed_total";
    work_requeued_total =
      Metrics.counter metrics
        ~help:"in-flight work items requeued off a failed connection"
        "session.work_requeued_total";
    work_lost_total =
      Metrics.counter metrics
        ~help:"work items abandoned (sessions torn down mid-flight)"
        "session.work_lost_total";
  }

let conn_host c = c.host

let conn_state c = c.state

let pool_size p = Hashtbl.length p.conns

let touch p c =
  p.stamp <- p.stamp + 1;
  c.last_used <- p.stamp;
  c.last_activity <- p.clock ()

let set_size p = Metrics.Gauge.set p.size_gauge (float_of_int (pool_size p))

let remove p c =
  (match Hashtbl.find_opt p.conns c.host with
  | Some current when current == c -> Hashtbl.remove p.conns c.host
  | Some _ | None -> ());
  c.state <- Closed;
  set_size p

(* Deterministic LRU eviction: among idle entries (no bound session, no
   in-flight work, fully established), drop the least recently used,
   ties broken by host name.  The table iteration is folded into a list
   and sorted, so the choice is a pure function of the pool state. *)
let evict_idle p =
  let candidates =
    Hashtbl.fold
      (fun _ c acc ->
        if c.refs = 0 && c.in_flight = 0 && c.state = Established then c :: acc
        else acc)
      p.conns []
  in
  let ordered =
    List.sort
      (fun a b ->
        match Int.compare a.last_used b.last_used with
        | 0 -> String.compare a.host b.host
        | c -> c)
      candidates
  in
  match ordered with
  | victim :: _ ->
    Metrics.Counter.incr p.evicted_total;
    Smart_util.Tracelog.instant p.trace "session.pool_evict";
    remove p victim;
    Some victim.host
  | [] -> None

(* ------------------------------------------------------------------ *)
(* Sessions                                                            *)
(* ------------------------------------------------------------------ *)

type session_state = Idle | Selecting | Active | Migrating

type session = {
  name : string;
  mutable sstate : session_state;
  mutable conn : conn option;      (* the active binding *)
  mutable origin : Smart_util.Tracelog.ctx;
      (* context of the client.request span that selected the current
         server; migration spans parent here so a handover reads as part
         of the request that created the binding *)
  mutable migrate_span : Smart_util.Tracelog.span;
  mutable migrate_started : float;
  mutable migrations : int;
  mutable completed : int;
}

let session p ~name =
  Metrics.Gauge.add p.sessions_gauge 1.0;
  {
    name;
    sstate = Idle;
    conn = None;
    origin = Smart_util.Tracelog.root;
    migrate_span = Smart_util.Tracelog.none;
    migrate_started = 0.0;
    migrations = 0;
    completed = 0;
  }

let session_state s = s.sstate

let session_conn s = s.conn

let session_migrations s = s.migrations

let session_completed s = s.completed

let selecting s =
  (match s.sstate with
  | Idle | Selecting -> ()
  | Active | Migrating ->
    invalid_arg "Session.selecting: session already bound");
  s.sstate <- Selecting

(* Bind [host]: reuse the pooled entry when one is live, otherwise open
   a fresh Connecting entry (evicting an idle one first when the pool is
   full — a pool whose every entry is busy is allowed to overflow, the
   size gauge shows it).  A Draining or Closed leftover for the same
   peer is replaced. *)
let attach p ~host =
  let fresh () =
    (if Hashtbl.length p.conns >= capacity then ignore (evict_idle p));
    let c =
      {
        host;
        state = Connecting;
        refs = 0;
        in_flight = 0;
        last_used = 0;
        last_activity = p.clock ();
        misses = 0;
      }
    in
    Metrics.Counter.incr p.opened_total;
    Hashtbl.replace p.conns host c;
    set_size p;
    c
  in
  let c =
    match Hashtbl.find_opt p.conns host with
    | Some c when c.state = Connecting || c.state = Established ->
      Metrics.Counter.incr p.reused_total;
      c
    | Some stale ->
      remove p stale;
      fresh ()
    | None -> fresh ()
  in
  c.refs <- c.refs + 1;
  touch p c;
  c

(* Release one session's reference; an idle fully-drained entry stays
   pooled for reuse (that is the point of the pool). *)
let detach p c =
  if c.refs > 0 then c.refs <- c.refs - 1;
  if c.state = Draining && c.refs = 0 && c.in_flight = 0 then remove p c

let bind p s ~host ~origin =
  (match s.sstate with
  | Idle | Selecting -> ()
  | Active | Migrating ->
    invalid_arg "Session.bind: session already bound");
  let c = attach p ~host in
  s.conn <- Some c;
  s.origin <- origin;
  s.sstate <- Active;
  c

let established p c =
  if c.state = Connecting then begin
    c.state <- Established;
    touch p c
  end

(* Hand the entry to the driver for closing and forget it.  In-flight
   counters on the forgotten record still resolve (the driver may hold
   work items issued on it); they just no longer affect the pool. *)
let close p c = remove p c

let drain p c =
  match c.state with
  | Closed | Draining -> ()
  | Connecting | Established ->
    if c.refs = 0 && c.in_flight = 0 then remove p c else c.state <- Draining

(* ------------------------------------------------------------------ *)
(* Work accounting                                                     *)
(* ------------------------------------------------------------------ *)

let work_started p s c =
  ignore s;
  Metrics.Counter.incr p.work_issued_total;
  c.in_flight <- c.in_flight + 1;
  touch p c

let settle_conn p c =
  if c.in_flight > 0 then c.in_flight <- c.in_flight - 1;
  if c.state = Draining && c.refs = 0 && c.in_flight = 0 then remove p c

let work_done p s c =
  Metrics.Counter.incr p.work_completed_total;
  s.completed <- s.completed + 1;
  touch p c;
  settle_conn p c

(* The item did not complete on this connection (server crashed,
   partition, drain cut-over): the driver keeps the item and re-issues
   it after migration — requeued, never lost. *)
let work_requeued p s c =
  ignore s;
  Metrics.Counter.incr p.work_requeued_total;
  settle_conn p c

let work_lost p ~count =
  if count > 0 then Metrics.Counter.incr ~by:count p.work_lost_total

(* ------------------------------------------------------------------ *)
(* Migration                                                           *)
(* ------------------------------------------------------------------ *)

let begin_migration p s =
  (match s.sstate with
  | Active -> ()
  | Idle | Selecting | Migrating ->
    invalid_arg "Session.begin_migration: session not active");
  s.sstate <- Migrating;
  s.migrate_started <- p.clock ();
  s.migrate_span <-
    Smart_util.Tracelog.start p.trace ~parent:s.origin "session.migrate"

(* The replacement is bound and the old connection starts draining: its
   in-flight work resolves (completed or requeued by the driver) before
   it closes.  The latency histogram measures decision-to-handover. *)
let complete_migration p s ~host ~origin =
  (match s.sstate with
  | Migrating -> ()
  | Idle | Selecting | Active ->
    invalid_arg "Session.complete_migration: no migration in progress");
  let old = s.conn in
  let c = attach p ~host in
  s.conn <- Some c;
  s.origin <- origin;
  s.sstate <- Active;
  s.migrations <- s.migrations + 1;
  Metrics.Counter.incr p.migrations_total;
  Metrics.Histogram.observe p.migration_latency
    (p.clock () -. s.migrate_started);
  Smart_util.Tracelog.finish p.trace s.migrate_span;
  s.migrate_span <- Smart_util.Tracelog.none;
  (match old with
  | Some o ->
    detach p o;
    (* a handover back to the same live entry (the server recovered and
       the wizard still ranks it first) must not drain what was just
       bound *)
    if not (o == c) then drain p o
  | None -> ());
  c

(* No replacement could be bound (wizard unreachable, admission shed the
   re-ask, nothing qualified): abandon the attempt, stay on the held
   server, and let the driver back off before trying again. *)
let abandon_migration p s ~reason =
  (match s.sstate with
  | Migrating -> ()
  | Idle | Selecting | Active ->
    invalid_arg "Session.abandon_migration: no migration in progress");
  ignore reason;
  s.sstate <- Active;
  Metrics.Counter.incr p.migration_failures_total;
  Smart_util.Tracelog.instant p.trace ~parent:s.origin
    "session.migrate_failed";
  Smart_util.Tracelog.finish p.trace s.migrate_span;
  s.migrate_span <- Smart_util.Tracelog.none

let retire p s =
  (match s.conn with
  | Some c ->
    detach p c;
    s.conn <- None
  | None -> ());
  (match s.sstate with
  | Migrating ->
    Smart_util.Tracelog.finish p.trace s.migrate_span;
    s.migrate_span <- Smart_util.Tracelog.none
  | Idle | Selecting | Active -> ());
  s.sstate <- Idle;
  Metrics.Gauge.add p.sessions_gauge (-1.0)

(* ------------------------------------------------------------------ *)
(* Keep-alive                                                          *)
(* ------------------------------------------------------------------ *)

(* Entries quiet for a full interval, sorted by host so probing order
   (and hence every downstream effect) is deterministic. *)
let keepalive_due p ~now =
  let due =
    Hashtbl.fold
      (fun _ c acc ->
        if
          c.state = Established
          && now -. c.last_activity >= p.keepalive_interval
        then c :: acc
        else acc)
      p.conns []
  in
  List.sort (fun a b -> String.compare a.host b.host) due

let keepalive_sent p c =
  ignore c;
  Metrics.Counter.incr p.keepalive_probes_total

let keepalive_ok p c =
  c.misses <- 0;
  touch p c

(* A missed probe; at the limit the peer is declared dead and the entry
   closed — sessions bound to it observe the Closed state and migrate. *)
let keepalive_miss p c =
  c.misses <- c.misses + 1;
  if c.misses >= keepalive_limit then begin
    Metrics.Counter.incr p.keepalive_failures_total;
    Smart_util.Tracelog.instant p.trace "session.keepalive_dead";
    remove p c
  end
