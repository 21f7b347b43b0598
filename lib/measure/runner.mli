(** Drive the simulation forward until a measurement completes. *)

(** [run_until engine ~deadline pred] advances the engine in 5 ms
    slices until [pred ()] is true or virtual time reaches [deadline];
    returns the final value of [pred ()]. *)
val run_until :
  Smart_sim.Engine.t -> deadline:float -> (unit -> bool) -> bool
