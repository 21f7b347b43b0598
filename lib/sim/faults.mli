(** Deterministic fault-injection plane.

    A plan is a schedule of (virtual time, action) pairs; {!install}
    arms one engine event per entry and hands each action to the
    driver's [apply] callback when its time comes.  Same seed, same
    plan, same run: chaos stays byte-for-byte reproducible.

    Actions are symbolic (host names); carrying them out — failing
    machines, cutting a host off the network, corrupting stream bytes —
    is the driver's job. *)

type action =
  | Crash_node of string  (** host dies: probes and daemons go silent *)
  | Restart_node of string
  | Partition_host of string  (** every channel touching the host *)
  | Heal_host of string
  | Corrupt_frames of float
      (** set the per-message stream corruption probability *)

(** Stable identifier of the action's kind ("crash_node", ...), used in
    metric names ([faults.<kind>_total]) and trace instants
    ([fault.<kind>]). *)
val action_kind : action -> string

type event = { at : float; action : action }

type plan = event list

(** Schedule every event of the plan on the engine, in time order (ties
    keep list order).  Each injection bumps [faults.injected_total] and
    the per-kind counter, records a [fault.<kind>] trace instant, then
    calls [apply].  Events in the engine's past raise
    {!Engine.Time_reversal}. *)
val install :
  ?metrics:Smart_util.Metrics.t ->
  ?trace:Smart_util.Tracelog.t ->
  engine:Engine.t ->
  apply:(action -> unit) ->
  plan ->
  unit
