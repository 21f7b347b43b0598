(** RTT probing with UDP datagrams echoed by ICMP port-unreachable
    (the experiment behind Figs 3.3-3.6 and the "ping" column of
    Table 3.2). *)

(** Destination port used by probes; never listened on. *)
val probe_dport : int

val probe_sport : int

type sample = { payload : int; rtt : float }

type sweep_result = {
  src : int;
  dst : int;
  samples : sample list;  (** sorted by payload size *)
  lost : int;
}

(** Sweep payload sizes [min_size..max_size] in [step]-byte increments,
    one datagram every 20 ms of virtual time; the last gets 5 s to
    echo. *)
val sweep :
  ?min_size:int ->
  ?max_size:int ->
  ?step:int ->
  Smart_net.Netstack.t ->
  src:int ->
  dst:int ->
  unit ->
  sweep_result

type knee_analysis = {
  knee_bytes : float;   (** detected break point, ≈ MTU *)
  slope_below : float;  (** s/byte below the knee: 1/B + 1/Speed_init *)
  slope_above : float;  (** s/byte above the knee: 1/B *)
  bw_below : float;
  bw_above : float;
  significant : bool;
      (** false on virtual interfaces or jitter-shadowed paths
          (observations 1 and 4 of §3.3.2) *)
}

(** Two-segment fit of a sweep per Formula (3.6). *)
val analyze : sweep_result -> knee_analysis

(** Median RTT of [count] small probes, or [None] if all are lost. *)
val ping :
  ?count:int ->
  ?gap:float ->
  ?timeout:float ->
  ?size:int ->
  Smart_net.Netstack.t ->
  src:int ->
  dst:int ->
  unit ->
  float option
