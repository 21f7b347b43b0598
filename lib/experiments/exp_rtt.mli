(** RTT-sweep experiments (Figs 3.3–3.5): payload-size sweeps whose RTT
    knee tracks the path MTU. *)

type sweep_report = {
  label : string;
  mtu : int;
  samples : Smart_measure.Rtt_probe.sample list;
  knee : Smart_measure.Rtt_probe.knee_analysis option;
  ping : float option;
  paper_ping : float option;
  lost : int;
}

(** sagit -> suna with the interface MTU at 1500, 1000 and 500 bytes,
    in 10-byte steps. *)
val mtu_sweeps : ?mtus:int list -> ?max_size:int -> unit -> sweep_report list

(** The fixture's representative paths at their native MTUs. *)
val sample_paths : ?max_size:int -> ?step:int -> unit -> sweep_report list

val print_sweep : sweep_report -> unit
