(** Self-Loading Periodic Streams available-bandwidth estimator — the
    `pathload` baseline.  Binary search on the stream rate, detecting a
    queue build-up by the delay trend across the stream. *)

type verdict = Increasing | Flat | Inconclusive

type result = {
  low : float;   (** lower bracket, bytes/second *)
  high : float;
  iterations : int;
}

(** Delay-trend classification of one stream's per-packet delays. *)
val trend : float array -> verdict

(** Bracket the available bandwidth between [lo] and [hi]. *)
val measure :
  ?iterations:int ->
  ?lo:float ->
  ?hi:float ->
  ?count:int ->
  ?size:int ->
  Smart_net.Netstack.t ->
  src:int ->
  dst:int ->
  unit ->
  result
