(** Deterministic splittable pseudo-random generator (splitmix64).

    Every stochastic element of the simulation (cross traffic, jitter,
    random server selection) draws from an explicitly threaded [t] so that
    experiment runs are reproducible bit-for-bit from their seed. *)

type t

(** [create ~seed] returns a fresh generator.  Equal seeds give equal
    streams. *)
val create : seed:int -> t

(** Independent copy: the copy and the original produce the same stream. *)
val copy : t -> t

(** Raw 64-bit internal state, for codecs and state-combining merges
    (e.g. {!Sketch.merge} XORs the two states). *)
val state : t -> int64

(** Generator resuming from a raw state previously read with {!state}. *)
val of_state : int64 -> t

(** [split t] returns a statistically independent child generator and
    advances [t]. *)
val split : t -> t

(** Uniform float in [\[0, bound)]. *)
val float : t -> bound:float -> float

(** Uniform int in [\[0, bound)]; [bound] must be positive. *)
val int : t -> bound:int -> int

(** Fair coin. *)
val bool : t -> bool

(** Uniform float in [\[lo, hi)]. *)
val range : t -> lo:float -> hi:float -> float

(** Normal variate (Box-Muller). *)
val gaussian : t -> mu:float -> sigma:float -> float

(** Fisher-Yates shuffle of a copy; the input is untouched. *)
val shuffle : t -> 'a array -> 'a array
