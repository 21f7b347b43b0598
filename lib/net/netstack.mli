(** Packet plane: UDP with IP fragmentation, ICMP port-unreachable, and
    per-hop store-and-forward forwarding over the topology.

    Implements the delay model of the paper's Formula (3.6): bottleneck
    residual-rate serialisation, interface initialisation cost capped at
    one MTU, and end-host processing overhead. *)

val ip_header : int
val udp_header : int

type handler = now:float -> Packet.t -> unit

type t

(** [create ~engine ~topo ~rng ()] builds a stack over an existing
    topology.  Each datagram costs an end host 60 us on average. *)
val create :
  ?trace:Smart_sim.Trace.t ->
  engine:Smart_sim.Engine.t ->
  topo:Topology.t ->
  rng:Smart_util.Prng.t ->
  unit ->
  t

val engine : t -> Smart_sim.Engine.t

val topology : t -> Topology.t

(** Install an accounting hook called with the wire bytes of every
    transmitted fragment ([src]/[dst] are the channel endpoints). *)
val set_byte_hook : t -> (src:int -> dst:int -> int -> unit) option -> unit

(** Register a UDP listener on [(node, port)]. *)
val listen_udp : t -> node:int -> port:int -> handler -> unit

val unlisten_udp : t -> node:int -> port:int -> unit

(** Register the ICMP handler of a node (one per node). *)
val on_icmp : t -> node:int -> handler -> unit

(** [send_udp t ~src ~dst ~sport ~dport ~size] emits a datagram with
    [size] application bytes; returns the datagram id.  Unlistened
    destination ports trigger an ICMP port-unreachable reply; a datagram
    whose [ttl] (default 64) runs out triggers an ICMP time-exceeded
    from the router where it died. *)
val send_udp :
  ?payload:string ->
  ?ttl:int ->
  t ->
  src:int ->
  dst:int ->
  sport:int ->
  dport:int ->
  size:int ->
  int
