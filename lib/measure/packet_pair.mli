(** Packet-pair capacity estimator — the `pipechar` baseline.

    Estimates bottleneck capacity from the dispersion of two back-to-back
    MTU-sized probes; accurate on quiet paths, unreliable under delay
    fluctuation (exactly the weakness the thesis reports). *)

type trial = { gap : float; bw : float }

type result = {
  trials : trial list;
  median_bw : float;   (** bytes/second *)
  failures : int;
  reliability : float; (** fraction of usable trials, cf. pipechar's
                           "%% reliable" output *)
}

(** [trials] pairs of 1472-byte probes, 50 ms apart, summarised by the
    median. *)
val measure :
  ?trials:int ->
  Smart_net.Netstack.t ->
  src:int ->
  dst:int ->
  unit ->
  result option
