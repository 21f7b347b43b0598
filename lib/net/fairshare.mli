(** Max-min fair rate allocation over shared links (progressive filling).

    Fluid model of competing TCP flows: used by the flow plane to compute
    per-transfer throughput whenever the set of active flows changes. *)

(** [rates ~capacities ~flows] returns the max-min fair rate of each flow;
    [flows.(i)] lists the indices (into [capacities]) of the links flow
    [i] traverses (a flow crossing none gets 1e12).  Raises [Invalid_argument] on an out-of-range index. *)
val rates : capacities:float array -> flows:int list array -> float array
