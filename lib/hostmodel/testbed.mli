(** Thesis testbed fixtures.

    [icpp2005] builds the 11-machine cluster of Table 5.1 / Fig 5.1;
    [paths] builds the wide-area measurement topology of Table 3.2. *)

(** Machine specs of Table 5.1, with Fig 5.2-calibrated matmul rates.
    Raises [Invalid_argument] for unknown names. *)
val spec_of_name : string -> Machine.spec

(** Names in Table 5.1 order. *)
val machine_names : string list

(** 100 Mbps switched-Ethernet link. *)
val lan_conf : Smart_net.Link.conf

(** The 11-machine testbed; [trace] is attached to the cluster's engine
    so packet/flow events are recorded. *)
val icpp2005 : ?seed:int -> ?trace:Smart_sim.Trace.t -> unit -> Cluster.t

type rtt_path = {
  label : string;
  src : int;
  dst : int;
  description : string;
  ping_rtt : float;  (** thesis ping figure, seconds *)
}

type paths_fixture = {
  cluster : Cluster.t;
  sagit : int;
  suna : int;
  paths : rtt_path list;
}

(** Measurement topology for Figs 3.3-3.6; [sagit_mtu] selects the probe
    host's interface MTU (1500 by default) and [sagit_virtual] removes
    its interface-initialisation cost (the Speed_init ablation). *)
val paths :
  ?seed:int -> ?sagit_mtu:int -> ?sagit_virtual:bool -> unit -> paths_fixture
