(** Network topology: nodes, directional channels, static routing. *)

(** A node's interface.  The rates behind it (the paper's [Speed_init]
    and node-local delivery) are constants of {!Netstack}'s delay
    model. *)
type nic = {
  mtu : int;             (** bytes, including IP header *)
  virtual_if : bool;     (** loopback/NAT: no interface-initialisation cost *)
}

(** MTU 1500, physical interface. *)
val default_nic : nic

type node = { id : int; name : string; ip : string; nic : nic }

type t

exception No_route of { src : int; dst : int }

val create : unit -> t

(** Node by id; raises [Invalid_argument] on a bad id. *)
val node : t -> int -> node

(** Register a node; names and IPs must be unique.  Returns the node id. *)
val add_node : ?nic:nic -> t -> name:string -> ip:string -> int

(** Resolve a hostname or dotted IP to a node id. *)
val resolve : t -> string -> int option

(** Bidirectional link: returns [(a_to_b, b_to_a)]. *)
val add_link : t -> a:int -> b:int -> Link.conf -> Link.t * Link.t

(** First channel on a shortest path, or [None] if unreachable. *)
val next_hop : t -> src:int -> dst:int -> Link.t option

(** Channel list from [src] to [dst] ([] when equal); raises [No_route]. *)
val path : t -> src:int -> dst:int -> Link.t list

val iter_channels : t -> (Link.t -> unit) -> unit
