(** Bounded event trace (ring buffer) for simulator observability.

    The network stack and flow plane write packet/flow events here when
    a trace is attached; tests and experiments dump it to see what the
    simulated deployment actually did. *)

type entry = { time : float; category : string; message : string }

type t

(** [create ()] keeps the most recent [capacity] entries (default 4096). *)
val create : ?capacity:int -> unit -> t

(** Printf-style. *)
val recordf :
  t -> now:float -> category:string -> ('a, Format.formatter, unit, unit) format4 -> 'a

(** Retained entries, oldest first. *)
val entries : t -> entry list
