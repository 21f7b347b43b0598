(** Fluid background traffic driving a channel's cross load. *)

(** Two-state on/off load, from now until the end of the run:
    [on_load] with probability [p_on] per 0.2 s period, [off_load]
    otherwise (and until the first period), in bytes/second. *)
val bursty :
  engine:Smart_sim.Engine.t ->
  rng:Smart_util.Prng.t ->
  chan:Link.t ->
  on_load:float ->
  off_load:float ->
  ?p_on:float ->
  unit ->
  unit
