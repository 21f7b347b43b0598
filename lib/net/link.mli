(** Directional link channel of the packet plane.

    Serves foreground packets at the residual rate (capacity minus
    background and flow load) with FIFO ordering, optional shaping, loss
    and jitter. *)

type conf = {
  capacity : float;    (** bytes per second *)
  prop_delay : float;  (** one-way propagation delay, seconds *)
  jitter : float;      (** std-dev of per-fragment delay noise, seconds *)
  loss : float;        (** independent per-fragment loss probability *)
}

type t = {
  id : int;
  src : int;
  dst : int;
  conf : conf;
  mutable busy_until : float;
  mutable cross_load : float;
  mutable flow_load : float;
  mutable shaper : Shaper.t option;
  mutable bytes_carried : int;
  mutable packets_carried : int;
  mutable partitioned : bool;
  mutable packets_dropped : int;
}

val create : id:int -> src:int -> dst:int -> conf -> t

val set_shaper : t -> Shaper.t option -> unit

(** A partitioned channel drops every fragment (counted in
    [packets_dropped]) without consuming serialisation time; healing
    restores normal service.  Fault-injection uses this for link and
    host partitions. *)
val set_partitioned : t -> bool -> unit

val partitioned : t -> bool

(** Set background cross-traffic load in bytes/second (clamped at 0). *)
val set_cross_load : t -> float -> unit

(** Bandwidth the fluid flow plane may share, bytes/second. *)
val capacity_for_flows : t -> float

(** [transmit t ~rng ~now ~size] serialises a fragment of [size] wire
    bytes; returns the arrival time at the far end, or [None] if lost. *)
val transmit :
  t -> rng:Smart_util.Prng.t -> now:float -> size:int -> float option
