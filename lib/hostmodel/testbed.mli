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

(** [helenes subnet names]: Table 5.1's helene (P4 1.7 GHz, 256 MB)
    once per name, at [subnet].1, [subnet].2, ... *)
val helenes : string -> string list -> Machine.spec list

(** [switched_lan ~seed segments] builds one switch per segment
    [(switch, switch_ip, hosts)], each host on an [access host] link to
    its segment's switch ({!lan_conf} by default), and the [i]-th switch
    trunked to the next over the [i]-th of [trunks] ({!lan_conf} where
    the list runs out).  It adds every host, then the switches, then the
    access links in segment order, then the trunks, so a seed builds the
    same cluster every time. *)
val switched_lan :
  seed:int ->
  ?access:(string -> Smart_net.Link.conf) ->
  ?trunks:Smart_net.Link.conf list ->
  (string * string * Machine.spec list) list ->
  Cluster.t

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

(** Measurement topology for Figs 3.3-3.6, built from seed 7;
    [sagit_mtu] selects the probe host's interface MTU (1500 by default)
    and [sagit_virtual] removes its interface-initialisation cost (the
    Speed_init ablation). *)
val paths : ?sagit_mtu:int -> ?sagit_virtual:bool -> unit -> paths_fixture
