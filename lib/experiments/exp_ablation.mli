(** Ablation studies for the measurement plane: probe-train sizing,
    packet-pair spacing, transmitter modes, and staleness detection. *)

(** One NIC kind's bandwidth estimate below and above the MTU knee. *)
type init_row = {
  nic_kind : string;
  sub_mtu_bw : float;   (** Mbps measured with 100~1000 B probes *)
  super_mtu_bw : float; (** Mbps measured with 1600~2900 B probes *)
  knee_significant : bool;
}

val init_speed_ablation : ?trials:int -> unit -> init_row list

val print_init_speed : init_row list -> unit

(** Packet-pair spacing sensitivity against a link shaped to 2 Mbps. *)
type spacing_row = {
  spacing : string;
  measured_mbps : float;
  truth_mbps : float;
}

val spacing_ablation : unit -> spacing_row list

val print_spacing : spacing_row list -> unit

(** Standing bandwidth and request latency per transmitter mode. *)
type mode_row = {
  mode : string;
  standing_kBps : float;       (** transmitter bytes over an idle minute *)
  request_latency_ms : float;  (** request round trip, virtual time *)
}

val mode_ablation : unit -> mode_row list

val print_modes : mode_row list -> unit

(** Failure-detection delay vs. spurious expiries per expiry threshold:
    one probe reporting every 2 s under 15% report loss, dead for good
    after 600 s, watched until 700 s. *)
type staleness_row = {
  missed_intervals : int;
  detection_s : float;     (** time to expire a really dead server *)
  false_expiries : int;    (** spurious expiries under report loss *)
}

val staleness_ablation : unit -> staleness_row list

val print_staleness : staleness_row list -> unit
