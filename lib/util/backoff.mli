(** Truncated exponential retry backoff with deterministic jitter.

    One policy type shared by every retry loop in the system — client
    request retransmits, transmitter reconnects, realnet connect loops —
    so retry behaviour is tuned in one place.  Jitter draws from an
    injected {!Prng}, keeping same-seed runs byte-identical. *)

type policy = {
  base : float;        (** first delay, seconds *)
  multiplier : float;  (** growth factor per attempt, [>= 1] *)
  max_delay : float;   (** ceiling the delays saturate at *)
  jitter : float;      (** fraction of each delay randomised away, [0, 1) *)
}

(** 200 ms base, doubling, 5 s cap, 25% jitter. *)
val default : policy

(** Validating constructor; unspecified fields come from {!default}.
    Raises [Invalid_argument] on nonsensical parameters. *)
val policy :
  ?base:float ->
  ?multiplier:float ->
  ?max_delay:float ->
  ?jitter:float ->
  unit ->
  policy

type t

(** A fresh backoff state at attempt 0.  Without [rng] the schedule is
    the fixed nominal one (no jitter). *)
val create : ?rng:Prng.t -> policy -> t

(** Back to attempt 0 (call after a success). *)
val reset : t -> unit

(** The undithered delay of a given 0-based attempt:
    [min max_delay (base * multiplier^attempt)]. *)
val nominal : policy -> attempt:int -> float

(** The next delay, advancing the attempt counter.  Jitter (if an [rng]
    was supplied) only shortens delays, so {!nominal} is the worst
    case. *)
val next : t -> float
