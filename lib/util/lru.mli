(** Bounded least-recently-used map with string keys.  O(1) find/add;
    inserting into a full cache evicts the least recently used entry.
    A zero-capacity cache accepts nothing (every [find] misses), which
    callers use to disable caching without a separate code path. *)

type 'a t

val create : capacity:int -> 'a t

(** Lookup; a hit promotes the entry to most-recently-used. *)
val find : 'a t -> string -> 'a option

(** Insert or replace; either way the entry becomes most-recently-used. *)
val add : 'a t -> string -> 'a -> unit

val capacity : 'a t -> int
