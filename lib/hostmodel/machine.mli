(** Simulated server machine: hardware spec plus lazily-integrated dynamic
    resource state (CPU jiffies, load averages, memory pools, disk and
    network counters). *)

type spec = {
  name : string;
  ip : string;
  cpu_model : string;
  cpu_mhz : float;
  bogomips : float;
  ram_bytes : int;
  os : string;
  matmul_rate : float;
      (** multiply-accumulate ops/second of the thesis's matrix program on
          this machine; encodes the Fig 5.2 per-machine benchmark *)
  disk_rate : float;  (** disk blocks/second *)
}

type workload = {
  wl_name : string;
  cpu_demand : float;  (** runnable processes worth of CPU *)
  mem_bytes : int;
  disk_read_ps : float;
  disk_write_ps : float;
}

type netdev = {
  mutable rbytes : float;
  mutable rpackets : float;
  mutable tbytes : float;
  mutable tpackets : float;
}

type t = {
  spec : spec;
  mutable last_sync : float;
  mutable jiffies_user : float;
  mutable jiffies_nice : float;
  mutable jiffies_system : float;
  mutable jiffies_idle : float;
  mutable load1 : float;
  mutable load5 : float;
  mutable load15 : float;
  mutable mem_os_used : int;
  mutable mem_buffers : int;
  mutable mem_cached : int;
  mutable workloads : (int * workload) list;
  mutable next_workload_id : int;
  mutable disk_rreq : float;
  mutable disk_wreq : float;
  mutable disk_rblocks : float;
  mutable disk_wblocks : float;
  eth : netdev;
  mutable failed : bool;
}

val create : ?now:float -> spec -> t

val spec : t -> spec

(** Sum of workload CPU demands (run-queue length). *)
val cpu_demand : t -> float

val mem_used : t -> int

(** CPU share a new demand-1 job would get: [1 / (1 + current demand)]. *)
val compute_share : t -> float

(** Integrate the dynamic state from the last sync time to [now]. *)
val sync : t -> now:float -> unit

(** Start a workload (syncs first, reclaims buffer/cache memory if free
    memory is short).  Returns a handle for [remove_workload]. *)
val add_workload : t -> now:float -> workload -> int

(** Stop a workload; [false] if the handle is unknown. *)
val remove_workload : t -> now:float -> int -> bool

(** Mark a machine dead: its probe stops reporting. *)
val set_failed : t -> bool -> unit

val failed : t -> bool

(** Account received / transmitted network bytes on eth0. *)
val count_rx : t -> bytes:float -> unit

val count_tx : t -> bytes:float -> unit

(** The thesis's SuperPI(25): ~150 MB resident, CPU pinned, load > 1. *)
val superpi : workload

val cpu_hog : demand:float -> workload

val disk_hog : reqps:float -> workload
