(** Dense square matrices and the blocked decomposition used by the
    distributed multiplication program (Appendix C.1). *)

(** An [n]×[n] matrix, row-major: entry [(row, col)] is
    [data.((row * n) + col)]. *)
type t = { n : int; data : float array }

(** Entries uniform in [\[-1, 1)]. *)
val random : rng:Smart_util.Prng.t -> int -> t

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
