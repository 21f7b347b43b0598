(** Reference for {!Smart_util.Prng}: splitmix64 with its counter in a
    mutable [int64] field, the generator the production module's
    unboxed counter must reproduce draw for draw. *)

type t

val create : seed:int -> t

val copy : t -> t

val state : t -> int64

val of_state : int64 -> t

val split : t -> t

val float : t -> bound:float -> float

val int : t -> bound:int -> int

val bool : t -> bool

val range : t -> lo:float -> hi:float -> float

val gaussian : t -> mu:float -> sigma:float -> float
