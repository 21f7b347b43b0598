(** Flow plane: bulk TCP-like transfers modelled as max-min fair fluid
    flows over the topology.  Rates are recomputed whenever a flow starts
    or finishes; aggregate flow load is published to the packet plane as
    background utilisation. *)

type stats = {
  flow_id : int;
  src : int;
  dst : int;
  bytes : int;
  started_at : float;
  finished_at : float;
  throughput : float;  (** bytes per second *)
}

type t

(** [create ~engine ~topo ()]; node-local transfers run at 4 Gbit/s;
    a [trace] records flow start/complete/abort events. *)
val create :
  ?trace:Smart_sim.Trace.t ->
  engine:Smart_sim.Engine.t ->
  topo:Topology.t ->
  unit ->
  t

(** Accounting hook fired with every banked byte delta of every flow. *)
val set_progress_hook : t -> (src:int -> dst:int -> float -> unit) option -> unit

(** [start t ~src ~dst ~bytes ~on_complete] launches a transfer and
    returns its flow id.  [on_complete] fires exactly once, at the virtual
    time the last byte is delivered. *)
val start :
  t -> src:int -> dst:int -> bytes:int -> on_complete:(stats -> unit) -> int

(** Abort an active flow without firing its callback; [true] if found. *)
val abort : t -> flow_id:int -> bool
