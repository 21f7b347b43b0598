(** Self-Loading Periodic Streams available-bandwidth estimator — the
    `pathload` baseline.  Binary search on the stream rate, detecting a
    queue build-up by the delay trend across the stream. *)

type result = {
  low : float;   (** lower bracket, bytes/second *)
  high : float;
  iterations : int;
}

(** Bracket the available bandwidth between [lo] and [hi]: each
    iteration sends one stream of [count] 1472-byte packets at the
    geometric mean rate, and an increasing delay trend across it lowers
    [hi] to that rate, a flat one raises [lo]; a stream too short to
    tell (under six packets) moves neither. *)
val measure :
  ?iterations:int ->
  ?lo:float ->
  ?hi:float ->
  ?count:int ->
  Smart_net.Netstack.t ->
  src:int ->
  dst:int ->
  unit ->
  result
