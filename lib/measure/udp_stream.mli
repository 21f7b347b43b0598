(** The paper's one-way UDP stream available-bandwidth estimator:
    [B = (S2 - S1) / (T2 - T1)] (Formula 3.5). *)

type trial = { s1 : int; s2 : int; t1 : float; t2 : float; bw : float }

type result = {
  trials : trial list;
  min_bw : float;  (** bytes/second *)
  max_bw : float;
  avg_bw : float;
  failures : int;
}

(** One sequential (S1, S2) probe pair, each echo given 10 s; [None] on
    loss or a non-positive delay difference.  [gap] separates the two
    probes so shapers refill equally for both. *)
val probe_pair :
  ?gap:float ->
  Smart_net.Netstack.t ->
  src:int ->
  dst:int ->
  s1:int ->
  s2:int ->
  unit ->
  trial option

(** [trials] sequential probe pairs summarised as min/max/avg bandwidth;
    [None] when every pair failed.  0.3 s of idle time separates
    consecutive pairs. *)
val measure :
  ?s1:int ->
  ?s2:int ->
  ?trials:int ->
  Smart_net.Netstack.t ->
  src:int ->
  dst:int ->
  unit ->
  result option
