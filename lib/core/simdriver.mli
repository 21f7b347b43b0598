(** Simulation driver: installs each machine's {!Role} (probe servers,
    monitor machines, the wizard machine, federation shards and root)
    onto a simulated cluster and routes component outputs over the
    packet plane.  Supports single-group (Fig 3.1) and multi-group
    (Fig 3.8) layouts. *)

type t

type config = {
  mode : Transmitter.mode;
  probe_interval : float;
  transmit_interval : float;
  security_log : string;  (** "" for no security data *)
  frame_crc : bool;
      (** CRC-32 trailers on transmitter frames, letting the receiver
          detect (and resync past) injected stream corruption *)
  wizard_staleness : float;
      (** receiver silence before the wizard flags replies degraded *)
  control_loops : bool;
      (** arm the three control loops (DESIGN.md §14): probes
          self-schedule on their adaptive report interval instead of the
          fixed [probe_interval] cadence, quarantine thresholds track the
          fleet's flap-score distribution, and degraded mode tracks the
          observed inter-update gap distribution *)
}

(** Centralized, 2 s probe and transmit intervals, no frame CRC, no
    staleness degradation, the control loops off.  Reports travel as UDP
    datagrams and records little-endian, as {!Role} wires every
    deployment.  Simulated wizards keep the
    default compile cache ({!Wizard.default_compile_cache_capacity})
    and never gate requests with admission control; a federation root
    always waits 1 s for shard replies and routes on digests. *)
val default_config : config

(** [deploy cluster ~monitor ~wizard_host ~servers] installs a
    single-group stack: probes on every host of [servers], monitors +
    transmitter on [monitor], receiver + wizard on [wizard_host].  The
    network monitor probes the servers directly. *)
val deploy :
  ?config:config ->
  Smart_host.Cluster.t ->
  monitor:string ->
  wizard_host:string ->
  servers:string list ->
  t

(** Multi-group deployment: one [(monitor_host, servers)] per group; the
    first group is the wizard's local group.  Network monitors probe
    their peer monitors (the Table 3.4 mesh) and the wizard binds
    monitor_network_* per group. *)
val deploy_groups :
  ?config:config ->
  Smart_host.Cluster.t ->
  wizard_host:string ->
  groups:(string * string list) list ->
  t

(** Federated deployment (DESIGN.md §13): an aggregation tree.  Each
    shard [(shard_host, groups)] is wired by the same code as a
    {!deploy_groups} stack: its transmitters feed a mirror on
    [shard_host], where a regional wizard answers root subqueries on
    the federation port ({!Smart_proto.Ports.fed}).  A digest uplink on
    [shard_host] ships the shard's column ranges to [root_host] every
    transmit interval, plus the shard wizard's latency sketch under
    {!Fed_root.latency_metric} once it has observations.  [root_host]
    runs the {!Fed_root}, listening for clients on the ordinary wizard
    port — {!request} drives a federated deployment unchanged.  The
    root waits 1 s for shard replies and skips shards whose digest
    proves the requirement unsatisfiable.  Groups always run
    centralized (a passive transmitter would never be pulled). *)
val deploy_federation :
  ?config:config ->
  Smart_host.Cluster.t ->
  root_host:string ->
  shards:(string * (string * string list) list) list ->
  t

(** Run the simulation for [duration] virtual seconds (default 6) so the
    databases fill. *)
val settle : ?duration:float -> t -> unit

(** [path_probe ~trials stack ~src ~dst] is the network monitor's probe
    of one path (§3.3.3): three 56-byte pings for the delay (half their
    median round trip), then [trials] one-way UDP stream pairs of 1600
    and 2900 bytes for the bandwidth (the pairs' mean).  Every datagram
    is sent whether or not an earlier one was answered, so [sent_bytes]
    is [3 * 56 + trials * (1600 + 2900)]; the result is [None] when
    either measurement got no answer.  Advances virtual time. *)
val path_probe :
  trials:int -> Smart_net.Netstack.t -> src:int -> dst:int -> Netmon.probe

(** Sequential (delay, bandwidth) probing round of every group's network
    monitor, then an immediate push to the wizard side.  Advances
    virtual time.  Returns the first (local) group's record. *)
val refresh_netmon : ?trials:int -> t -> Smart_proto.Records.net_record

(** All groups' mesh records as mirrored on the wizard side. *)
val all_netmon_records : t -> Smart_proto.Records.net_record list

(** One smart-socket request from host [client]; returns the candidate
    host list or the client-side error.  The client library's
    {!Client.exchange} schedules it: the datagram is retransmitted (same
    sequence number) on per-attempt timeouts drawn from [backoff], up to
    [attempts] sends within 5 s.  Runs entirely on virtual time, and
    returns on the first runner tick after the outcome. *)
val request :
  ?option:Smart_proto.Wizard_msg.option_flag ->
  ?attempts:int ->
  ?backoff:Smart_util.Backoff.policy ->
  t ->
  client:string ->
  wanted:int ->
  requirement:string ->
  (string list, Client.error) result

(** What {!run_sessions} observed, summed over all sessions. *)
type session_report = {
  sessions : int;
  survived : int;
      (** sessions bound to a live server at the end with nothing lost *)
  migrations : int;  (** completed mid-session migrations *)
  work_issued : int;  (** work items put on a connection, re-issues included *)
  work_completed : int;
  work_requeued : int;
      (** items pulled off a failed connection and re-issued later *)
  work_lost : int;  (** items never completed — the chaos gate pins this at 0 *)
}

(** Drive long-lived sessions (DESIGN.md §15) against the deployment:
    [clients] lists [(client_host, sessions_on_it)].  Every session asks
    the wizard for one server satisfying [requirement] (accepting a
    partial answer, within 4 s), binds it through a shared
    {!Session.pool} (keep-alives every 2 s), and issues one synthetic
    work item per [work_interval] (each occupying the connection for
    0.4 s) until [duration] virtual seconds have passed, then drains.  A
    watcher per session checks every 0.5 s: a dead connection
    (crashed or partitioned server, keep-alive verdict), or — in flat
    deployments — a status-generation change after which the held host
    fails {!Selection.qualifies} on its {!Status_db.row_view} (the
    requirement compiled once, the row bound as selection binds it),
    triggers a mid-session migration ({!Session.begin_migration} …
    {!Session.complete_migration}); in-flight items caught on the old
    connection are requeued and re-issued, never lost.  Admission
    rejections and failed migrations back off on
    {!Smart_util.Backoff.default}.  Runs the engine (don't call from
    inside a callback) until everything drains or 30 s pass after the
    end. *)
val run_sessions :
  ?work_interval:float ->
  t ->
  clients:(string * int) list ->
  requirement:string ->
  duration:float ->
  session_report

(** One [SMART-METRICS] scrape from host [client] over the packet plane:
    the wizard port (or the federation root's client port) answers the
    magic datagram with the deployment registry rendered as text, within
    2 s.  In a federated deployment the dump includes the
    [federation.fed_latency_p{50,95,99}_s] gauges kept fresh from merged
    shard sketches — deployment-wide quantiles in one scrape.  Runs on
    virtual time. *)
val scrape_metrics :
  t ->
  client:string ->
  (string, string) result

(** Arm a {!Smart_sim.Faults.plan} on the deployment's engine: each
    event fires at its virtual time and is applied to the deployment
    there, so same-seed chaos runs replay identically. *)
val install_faults : t -> Smart_sim.Faults.plan -> unit

val db_wizard : t -> Status_db.t

(** The deployment-wide metrics registry: every component of every group
    (and the client library used by [request]) registers its instruments
    here, so same-named metrics aggregate across instances.  Snapshot it
    for deterministic end-to-end assertions (see OBSERVABILITY.md). *)
val metrics : t -> Smart_util.Metrics.t

(** The deployment-wide span recorder: every component of every group
    (and the client library used by [request]) records its spans here,
    stamped with the engine's virtual clock.  Always enabled — for a
    given seed the recorded spans, and hence {!trace_json}, are
    byte-for-byte deterministic. *)
val tracelog : t -> Smart_util.Tracelog.t

(** Chrome trace-event JSON of the whole deployment (load in Perfetto or
    chrome://tracing).  When the cluster was built with an attached
    {!Smart_sim.Trace.t}, its packet/timer events are merged in as
    instant events. *)
val trace_json : t -> string
