(** One thread of control for a realnet daemon: a [Unix.select] over
    registered readable descriptors, periodic timers and a wake pipe.
    Register descriptors before {!start} or from a callback on the loop,
    timers before {!start}. *)

type t

val create : unit -> t

(** Call [on_readable ~now] whenever the descriptor is readable, with
    the clock reading of that wakeup.  The descriptor is made
    non-blocking and the loop owns it: {!remove} or {!stop} closes it. *)
val add : t -> Unix.file_descr -> (now:float -> unit) -> unit

(** Unregister a descriptor and close it. *)
val remove : t -> Unix.file_descr -> unit

(** [every t ~offset ~period fire] calls [fire ~now] on the first
    wakeup [offset] seconds or more after {!start}, then on the first
    one [period ()] seconds or more after each call (read after it),
    skipping the wakeups when [armed ()] (default: always) is false.
    Timers due in one wakeup fire in registration order. *)
val every :
  ?armed:(unit -> bool) ->
  t ->
  offset:float ->
  period:(unit -> float) ->
  (now:float -> unit) ->
  unit

(** Run the loop on a thread of its own, once. *)
val start : t -> unit

(** Run [f] on the loop's thread (on the caller's when the loop is not
    running: not started, stopped, or ended by a callback's exception)
    and return its result.  Never call it from a callback. *)
val call : t -> (unit -> 'a) -> 'a

(** Wake the loop, join its thread and close every registered
    descriptor and the wake pipe; a second call does nothing. *)
val stop : t -> unit
