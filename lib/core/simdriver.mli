(** Simulation driver: deploys probes, monitors, transmitters, receiver
    and wizard onto a simulated cluster and routes component outputs over
    the packet plane.  Supports single-group (Fig 3.1) and multi-group
    (Fig 3.8) layouts. *)

type t

type config = {
  mode : Transmitter.mode;
  probe_interval : float;
  probe_transport : Probe.transport;
  transmit_interval : float;
  order : Smart_proto.Endian.order;
  security_log : string;  (** "" for no security data *)
  frame_crc : bool;
      (** CRC-32 trailers on transmitter frames, letting the receiver
          detect (and resync past) injected stream corruption *)
  wizard_staleness : float;
      (** receiver silence before the wizard flags replies degraded *)
  adaptive_probes : bool;
      (** arm {!Probe.adaptive}: probes self-schedule on their effective
          report interval instead of the fixed [probe_interval] cadence *)
  adaptive_quarantine : bool;
      (** arm {!Sysmon.flap_policy}: quarantine thresholds track the
          fleet's flap-score distribution *)
  adaptive_staleness : bool;
      (** arm {!Wizard.staleness_policy}: degraded mode tracks the
          observed inter-update gap distribution *)
}

(** Centralized, 2 s probe and transmit intervals, UDP reports,
    little-endian records, no frame CRC, no staleness degradation, all
    three adaptive control loops off.  Simulated wizards keep the
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

(** One regional shard of a federated deployment (exposed for tests). *)
type fed_shard = {
  shard_host : string;  (** runs the shard mirror + regional wizard *)
  shard_db : Status_db.t;  (** the mirror subqueries are answered from *)
  shard_wizard : Wizard.t;
}

type federation = { root : Fed_root.t; fed_shards : fed_shard list }

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

(** The federation state of a {!deploy_federation} deployment; [None]
    for flat deployments. *)
val federation : t -> federation option

(** Run the simulation for [duration] virtual seconds (default 6) so the
    databases fill. *)
val settle : ?duration:float -> t -> unit

(** Sequential (delay, bandwidth) probing round of every group's network
    monitor, then an immediate push to the wizard side.  Advances
    virtual time.  Returns the first (local) group's record. *)
val refresh_netmon : ?trials:int -> t -> Smart_proto.Records.net_record

(** All groups' mesh records as mirrored on the wizard side. *)
val all_netmon_records : t -> Smart_proto.Records.net_record list

(** One smart-socket request from host [client]; returns the candidate
    host list or the client-side error.  The datagram is retransmitted
    (same sequence number) on per-attempt timeouts drawn from [backoff],
    up to [attempts] sends within the overall [timeout]; late duplicate
    replies are suppressed by the client library.  Runs entirely on
    virtual time. *)
val request :
  ?option:Smart_proto.Wizard_msg.option_flag ->
  ?timeout:float ->
  ?attempts:int ->
  ?backoff:Smart_util.Backoff.policy ->
  t ->
  client:string ->
  wanted:int ->
  requirement:string ->
  (string list, Client.error) result

(** Callback-style twin of {!request} for code already running inside an
    engine callback ({!request} re-enters the engine and must not be
    called there).  Sends now, retransmits on engine timers, and calls
    the callback exactly once with the result.  Returns the request's
    trace context — the [client.request] span that {!Session.bind}
    takes as the binding's origin. *)
val async_request :
  ?option:Smart_proto.Wizard_msg.option_flag ->
  ?timeout:float ->
  ?attempts:int ->
  ?backoff:Smart_util.Backoff.policy ->
  t ->
  client:string ->
  wanted:int ->
  requirement:string ->
  ((string list, Client.error) result -> unit) ->
  Smart_util.Tracelog.ctx

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
    the wizard for a server satisfying [requirement], binds it through a
    shared {!Session.pool}, and issues one synthetic work item per
    [work_interval] (each occupying the connection for [work_duration])
    until [duration] virtual seconds have passed, then drains.  A
    watcher per session checks every [check_interval]: a dead connection
    (crashed or partitioned server, keep-alive verdict), or — in flat
    deployments — a status-generation change after which the held host
    fails {!Selection.qualifies} on its {!Status_db.row_view} (the
    requirement compiled once, the row bound as selection binds it),
    triggers a mid-session migration ({!Session.begin_migration} …
    {!Session.complete_migration}); in-flight items caught on the old
    connection are requeued and re-issued, never lost.  Admission
    rejections and failed migrations back off on [backoff].  Runs the
    engine (don't call from inside a callback) until everything drains
    or [drain_timeout] expires past the end. *)
val run_sessions :
  ?wanted:int ->
  ?option:Smart_proto.Wizard_msg.option_flag ->
  ?work_interval:float ->
  ?work_duration:float ->
  ?check_interval:float ->
  ?keepalive_interval:float ->
  ?request_timeout:float ->
  ?backoff:Smart_util.Backoff.policy ->
  ?drain_timeout:float ->
  t ->
  clients:(string * int) list ->
  requirement:string ->
  duration:float ->
  session_report

(** One [SMART-METRICS] scrape from host [client] over the packet plane:
    the wizard port (or the federation root's client port) answers the
    magic datagram with the deployment registry rendered in [format]
    (default [Text]).  In a federated deployment the dump includes the
    [federation.fed_latency_p{50,95,99}_s] gauges kept fresh from merged
    shard sketches — deployment-wide quantiles in one scrape.  Runs on
    virtual time. *)
val scrape_metrics :
  ?format:Smart_proto.Metrics_msg.format ->
  ?timeout:float ->
  t ->
  client:string ->
  (string, string) result

(** Silence a machine's probe (host failure). *)
val fail_machine : t -> host:string -> unit

val revive_machine : t -> host:string -> unit

(** Partition (or heal) every channel touching [host]. *)
val set_host_partitioned : t -> host:string -> bool -> unit

(** Partition (or heal) the channels directly connecting two adjacent
    nodes; no-op when they are not adjacent. *)
val set_link_partitioned : t -> a:string -> b:string -> bool -> unit

(** Inject (or lift, [host] matching a group's monitor) a monitor
    outage: the group's monitors and transmitter stop handling and
    ticking, as if the processes were stopped — the machine and its
    network stay up. *)
val set_monitor_down : t -> host:string -> bool -> unit

(** Per-message probability of corrupting one byte of a stream payload
    in flight (metered by [faults.corrupted_messages_total]).  Raises
    [Invalid_argument] outside [0, 1]. *)
val set_frame_corruption : t -> float -> unit

(** Carry out one fault action immediately (the effector behind
    {!install_faults}). *)
val apply_fault : t -> Smart_sim.Faults.action -> unit

(** Arm a {!Smart_sim.Faults.plan} on the deployment's engine: each
    event fires at its virtual time and is applied through
    {!apply_fault}, so same-seed chaos runs replay identically. *)
val install_faults : t -> Smart_sim.Faults.plan -> Smart_sim.Faults.t

(** [(messages, payload bytes)] sent so far by a component tag:
    "probe", "transmitter", "wizard", "client". *)
val traffic_stats : t -> string -> int * int

val db_wizard : t -> Status_db.t

val receiver_component : t -> Receiver.t

val group_count : t -> int

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
