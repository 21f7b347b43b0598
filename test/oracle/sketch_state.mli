(** Observable-state equality of quantile sketches, the relation the
    merge laws are stated in. *)

(** Equal [k], count, error weight and min/max, and the same retained
    multiset at every level.  PRNG state is left out so the monoid laws
    hold exactly. *)
val equal : Smart_util.Sketch.t -> Smart_util.Sketch.t -> bool
