(** Bounded event trace (ring buffer) for simulator observability.

    The network stack and flow plane write packet/flow events here when
    a trace is attached; tests and experiments dump it to see what the
    simulated deployment actually did. *)

type entry = { time : float; category : string; message : string }

type t

(** [create ()] keeps the most recent [capacity] entries (default 4096). *)
val create : ?capacity:int -> unit -> t

val set_enabled : t -> bool -> unit

val record : t -> now:float -> category:string -> string -> unit

(** Printf-style; the message is formatted only if tracing is enabled. *)
val recordf :
  t -> now:float -> category:string -> ('a, Format.formatter, unit, unit) format4 -> 'a

(** Entries ever recorded (including those the ring has dropped). *)
val total_recorded : t -> int

(** How many early entries the ring has overwritten. *)
val dropped : t -> int

(** Retained entries, oldest first. *)
val entries : t -> entry list

val filter : t -> category:string -> entry list

val clear : t -> unit
