(** Discrete-event simulation engine with a virtual clock.

    All network and host components of the simulated deployment are driven
    from one engine; time never flows backwards, and simultaneous events
    execute in scheduling order. *)

type t

type handle

(** Raised when scheduling into the past or running to an earlier time. *)
exception Time_reversal of { now : float; requested : float }

(** Fresh engine at virtual time 0. *)
val create : unit -> t

(** Current virtual time in seconds. *)
val now : t -> float

(** Schedule a thunk at an absolute virtual time. *)
val schedule_at : t -> time:float -> (unit -> unit) -> handle

(** Schedule a thunk after a non-negative delay from now. *)
val schedule_after : t -> delay:float -> (unit -> unit) -> handle

(** Lazily cancel a scheduled event. *)
val cancel : handle -> unit

(** Execute all events up to and including [until], then set the clock to
    [until]. *)
val run : t -> until:float -> unit

type periodic

(** [every t ~period ~start f] fires [f now] at [start], then every
    [period] until [stop_periodic]. *)
val every :
  t ->
  period:float ->
  start:float ->
  (float -> unit) ->
  periodic

val stop_periodic : periodic -> unit
