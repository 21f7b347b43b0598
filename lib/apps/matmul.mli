(** Distributed matrix multiplication over the simulated cluster
    (Appendix C): self-scheduling block tasks shipped over TCP flows,
    computed at each worker's effective rate. *)

type worker_stats = {
  host : string;
  tasks_done : int;
  compute_time : float;
  bytes_in : int;
  bytes_out : int;
}

type result = {
  makespan : float;  (** virtual seconds from start to last result tile *)
  tasks : int;
  workers : worker_stats list;
}

(** Single-machine run time of the full n³ multiplication on a machine,
    accounting for its current load (Fig 5.2's benchmark). *)
val local_time : machine:Smart_host.Machine.t -> n:int -> float

(** [run cluster ~master ~workers ~n ~blk] executes the distributed
    multiplication and drives the simulation until the last tile lands
    (or a virtual hour elapses). *)
val run :
  Smart_host.Cluster.t ->
  master:int ->
  workers:int list ->
  n:int ->
  blk:int ->
  result
