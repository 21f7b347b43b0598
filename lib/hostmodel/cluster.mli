(** A simulated deployment: engine + topology + packet/flow planes +
    machines, with network byte accounting wired into machine NIC
    counters. *)

type t

(** [create ()] builds an empty deployment; attach a [trace] to record
    packet/flow events for debugging. *)
val create : ?seed:int -> ?trace:Smart_sim.Trace.t -> unit -> t

val engine : t -> Smart_sim.Engine.t
val topology : t -> Smart_net.Topology.t
val stack : t -> Smart_net.Netstack.t
val flows : t -> Smart_net.Flow.t
val rng : t -> Smart_util.Prng.t

(** The attached trace, if any. *)
val trace : t -> Smart_sim.Trace.t option

(** Current virtual time. *)
val now : t -> float

(** Add a switch/router node carrying no machine. *)
val add_switch : t -> name:string -> ip:string -> int

(** Add a server machine; node name/IP come from the spec. *)
val add_machine : ?nic:Smart_net.Topology.nic -> t -> Machine.spec -> int

(** Bidirectional link. *)
val link : t -> a:int -> b:int -> Smart_net.Link.conf -> Smart_net.Link.t * Smart_net.Link.t

(** Hostname or IP to node id. *)
val resolve : t -> string -> int option

val resolve_exn : t -> string -> int

val machine_opt : t -> int -> Machine.t option

(** Machine at a node; raises [Invalid_argument] for switch nodes. *)
val machine : t -> int -> Machine.t

(** rshaper equivalent on both directions of every channel touching
    [node]; [None] removes the shaper.  Returns [true] if a channel was
    found.  The bucket holds one MTU, so probes measure the shaped
    rate. *)
val shape_access : t -> node:int -> rate_bytes_per_sec:float option -> bool
