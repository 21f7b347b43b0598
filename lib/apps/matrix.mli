(** The blocked decomposition used by the distributed multiplication
    program (Appendix C.1): what each block task ships, returns and
    computes.  The simulation moves these bytes and charges these
    operations; it multiplies no matrix. *)

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
