(** One wiring per machine role (Fig 3.1): what a probe server, a
    monitor machine, a wizard machine, a federation shard and a
    federation root run, written once.  A description builds the
    components, connects their hooks and declares the machine's ports,
    timers, scrape endpoint and the peer names its outputs address.

    Two installers consume a description: the simulator's
    ({!Simdriver}) on the packet plane, and the real-socket one
    ([Smart_realnet.Daemon]) on one event loop.  The installer supplies
    what differs by environment: the clock, the registry and the flight
    recorder ({!env}), the probe's snapshot source, and in simulation
    the liveness, corruption and doomed-stream filters.  Every machine
    frames its records little-endian. *)

(** Where outputs go out: from port [sport] (0 when none in particular;
    on real sockets the scrape port's socket).  A stream delivery that
    fails or completes is reported to [transmitter]'s resend queue and
    backoff. *)
type sink = { sport : int; transmitter : Transmitter.t option }

type handler =
  | Datagram of (now:float -> from:Output.address -> string -> Output.t list)
  | Stream of Receiver.t
      (** each peer's bytes feed {!Receiver.handle_stream}; the end of a
          stream calls {!Receiver.forget_source} *)

type port = { number : int; handler : handler; sink : sink }

(** A periodic task.  It first falls due [offset] seconds after install,
    then [period ()] seconds after each fire (read after the fire, so a
    component can set its own cadence), plus up to [jitter] seconds of
    uniform noise in simulation, modelling the real daemons'
    scheduling.  A wakeup where [armed ()] is false does nothing. *)
type timer = {
  offset : float;
  period : unit -> float;
  jitter : float;
  armed : unit -> bool;
  fire : now:float -> Output.t list;
  sink : sink;
}

(** One registry and one flight recorder (per deployment in simulation,
    per daemon on sockets), and the clock latency histograms read. *)
type env = {
  metrics : Smart_util.Metrics.t;
  trace : Smart_util.Tracelog.t;
  clock : unit -> float;
}

(** A machine built in [env]: its ports, its timers (those due in the
    same wakeup fire in list order), the port that answers scrapes, the
    host names its outputs address, and [parts], the components a
    driver or a test reaches into. *)
type 'a t = {
  ports : port list;
  timers : timer list;
  scrape_port : int;
  env : env;
  peers : string list;
  parts : 'a;
}

(** The reply to a datagram on the scrape port: the rendered registry
    for a {!Smart_proto.Metrics_msg} request, the span ring for a
    {!Smart_proto.Trace_msg} one, and [None], allocating nothing, for
    any other datagram. *)
val scrape : 'a t -> string -> string option

(** A probe server reporting every [interval] seconds from [snapshot]
    (under [control_loops], default off, adaptively around [interval]
    and self-scheduled on {!Probe.report_interval}); a failed snapshot
    counts in [probe.errors_total].  Its echo port
    ({!Smart_proto.Ports.probe}) bounces every datagram. *)
val probe :
  ?control_loops:bool ->
  env ->
  Probe.config ->
  interval:float ->
  snapshot:(now:float -> (Smart_host.Procfs.snapshot, string) result) ->
  unit t

type monitor_config = {
  host : string;
  wizard_host : string;
  mode : Transmitter.mode;
  probe_interval : float;  (** the probes' cadence, and the sweep's *)
  transmit_interval : float;
  netmon_targets : string list;
  security_log : string;  (** log contents, "" for none *)
}

type monitor = { netmon : Netmon.t; transmitter : Transmitter.t }

(** A monitor machine: the system monitor on its report port, swept
    every probe interval (a server expires after three silent ones), the
    security and network monitors, and the transmitter, pushing every
    transmit interval, with CRC trailers under [crc], and pulled on its
    port (the scrape port).  A
    sweep due with a push goes first.  Under [control_loops] (default
    off) the system monitor quarantines adaptively, and a server expires
    after three of the slowest cadence adaptive probes may adopt
    ({!Probe.max_factor} probe intervals each). *)
val monitor :
  ?control_loops:bool ->
  ?crc:bool ->
  env ->
  monitor_config ->
  monitor t

type wizard = { db : Status_db.t; receiver : Receiver.t; wizard : Wizard.t }

(** A wizard machine: the receiver on its stream port mirroring into
    the wizard's database, and the wizard (named [shard_name] in a
    federation, adaptive staleness under [control_loops], default off)
    on the request port (the scrape port), ticked every 50 ms while a
    request is parked. *)
val wizard :
  ?control_loops:bool ->
  ?admission:Wizard.admission ->
  ?groups:Wizard.groups ->
  ?shard_name:string ->
  env ->
  mode:Wizard.mode ->
  staleness_threshold:float ->
  wizard t

(** A federation shard (DESIGN.md §13): a {!wizard} machine built with
    a [shard_name], extended to answer root subqueries on the
    federation port and to push a digest uplink under that name to
    [root_host] every [transmit_interval] (with the wizard's latency
    sketch once it has observations).
    Subqueries read the mirror as it stands, so the groups feeding the
    machine push (centralized mode).  Raises [Invalid_argument] when
    the machine has no shard name. *)
val shard :
  wizard t -> root_host:string -> crc:bool -> transmit_interval:float ->
  wizard t

type root = {
  root : Fed_root.t;
  root_db : Status_db.t;  (** digests only: the receiver's mirror *)
  root_receiver : Receiver.t;
}

(** A federation root over the shard hosts [shards]: digests and
    sketches arrive on the receiver port, clients on the request port
    (the scrape port).  Requests fan out from the federation port, where
    shard replies return; answers leave from the request port.  It
    waits 1 s for shard replies and routes on digests. *)
val root : env -> shards:string list -> root t
