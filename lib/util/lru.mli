(** Bounded least-recently-used map.  O(1) find/add; inserting into a
    full cache evicts the least recently used entry.  Keys are compared
    structurally and hashed with [Hashtbl.hash].  A zero-capacity cache
    accepts nothing (every [find] misses), which callers use to disable
    caching without a separate code path. *)

type ('k, 'v) t

val create : capacity:int -> ('k, 'v) t

(** Lookup; a hit promotes the entry to most-recently-used, allocating
    nothing but the returned option. *)
val find : ('k, 'v) t -> 'k -> 'v option

(** Insert or replace; either way the entry becomes most-recently-used. *)
val add : ('k, 'v) t -> 'k -> 'v -> unit

val capacity : ('k, 'v) t -> int
