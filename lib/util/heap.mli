(** Binary min-heap keyed by [float] with FIFO tie-breaking.

    Ties on the key pop in insertion order, which the simulator relies on
    for deterministic ordering of simultaneous events. *)

type 'a t

(** Fresh empty heap. *)
val create : unit -> 'a t

(** [push t ~key v] inserts [v] with priority [key] (smaller pops first). *)
val push : 'a t -> key:float -> 'a -> unit

(** Smallest element without removing it. *)
val peek : 'a t -> (float * 'a) option

(** Remove and return the smallest element. *)
val pop : 'a t -> (float * 'a) option
