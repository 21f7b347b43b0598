(** The massive download program (§5.3.2): parallel block fetch from
    several file servers with self-scheduling, plus the fault-tolerance
    extension of Ch. 6 (server failure with block requeueing). *)

type server_stats = { host : string; blocks : int; bytes : int }

type result = {
  elapsed : float;     (** virtual seconds *)
  bytes_total : int;
  throughput : float;  (** bytes per second *)
  servers : server_stats list;
}

(** [{ host; at }]: [host] dies [at] seconds into the run; its in-flight
    block is aborted and requeued on the survivors. *)
type failure = { host : string; at : float }

(** [run cluster ~client ~servers ~data_kb ~blk_kb] downloads [data_kb]
    kilobytes in [blk_kb]-kilobyte blocks and drives the simulation until
    the last block lands (or every server has died, or ten virtual hours
    have passed).  Raises [Invalid_argument] if a failure names a host
    outside [servers]. *)
val run :
  ?failures:failure list ->
  Smart_host.Cluster.t ->
  client:int ->
  servers:int list ->
  data_kb:int ->
  blk_kb:int ->
  result
