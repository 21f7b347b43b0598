(** Dense square matrices and the blocked decomposition used by the
    distributed multiplication program (Appendix C.1). *)

type t

val create : int -> t

val get : t -> row:int -> col:int -> float

val init : int -> (row:int -> col:int -> float) -> t

val random : rng:Smart_util.Prng.t -> int -> t

val identity : int -> t

(** Plain triple-loop product. *)
val multiply : t -> t -> t

type block = { index : int; row0 : int; col0 : int; rows : int; cols : int }

(** Result-block decomposition of an [n]×[n] product into [blk]×[blk]
    tiles (edge tiles may be smaller). *)
val blocks : n:int -> blk:int -> block list

(** Bytes shipped to a worker for one task (A row-band + B col-band). *)
val task_input_bytes : n:int -> block -> int

(** Bytes a worker returns (the result tile). *)
val task_output_bytes : block -> int

(** Multiply-accumulate operations in one task. *)
val task_ops : n:int -> block -> int

(** Product via the task decomposition; equals [multiply]. *)
val multiply_blocked : t -> t -> blk:int -> t

val equal : ?eps:float -> t -> t -> bool
