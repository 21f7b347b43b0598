(** Deterministic fault-injection plane.

    A plan is a schedule of (virtual time, action) pairs; {!install}
    arms one engine event per entry and hands each action to the
    driver's [apply] callback when its time comes.  Same seed, same
    plan, same run: chaos stays byte-for-byte reproducible.

    Actions are symbolic (host and link names); carrying them out —
    failing machines, dropping link traffic, corrupting stream bytes,
    silencing a monitor's processes — is the driver's job. *)

type action =
  | Crash_node of string  (** host dies: probes and daemons go silent *)
  | Restart_node of string
  | Partition_link of string * string
      (** the direct link between two named nodes drops everything *)
  | Heal_link of string * string
  | Partition_host of string  (** every channel touching the host *)
  | Heal_host of string
  | Corrupt_frames of float
      (** set the per-message stream corruption probability *)
  | Monitor_outage of string
      (** the monitor machinery hosted on a machine stops handling and
          transmitting (the process, not the network) *)
  | Monitor_restore of string

(** Stable identifier of the action's kind ("crash_node", ...), used in
    metric names ([faults.<kind>_total]) and trace instants
    ([fault.<kind>]). *)
val action_kind : action -> string

type event = { at : float; action : action }

type plan = event list

(** Stable sort by time (ties keep list order). *)
val sort_plan : plan -> plan

type t

(** Schedule every event of the plan on the engine.  Each injection
    bumps [faults.injected_total] and the per-kind counter, records a
    [fault.<kind>] trace instant, then calls [apply].  Events in the
    engine's past raise {!Engine.Time_reversal}. *)
val install :
  ?metrics:Smart_util.Metrics.t ->
  ?trace:Smart_util.Tracelog.t ->
  engine:Engine.t ->
  apply:(action -> unit) ->
  plan ->
  t

(** Actions injected so far. *)
val injected : t -> int

(** Actions still scheduled. *)
val pending : t -> int

(** Seeded chaos plan: [episodes] fault/repair pairs (cycling through
    node crash, host partition and monitor outage) spread over
    [0.1*duration, 0.8*duration], each repaired after a uniform
    [min_repair, max_repair] delay; [corruption] switches a constant
    frame-corruption rate on at time 0.  Deterministic in [rng]. *)
val random_plan :
  ?episodes:int ->
  ?min_repair:float ->
  ?max_repair:float ->
  ?corruption:float ->
  rng:Smart_util.Prng.t ->
  hosts:string list ->
  monitors:string list ->
  duration:float ->
  unit ->
  plan
