(* Simulated server: static hardware spec plus dynamic resource state.

   State advances lazily: [sync t ~now] integrates CPU jiffies, load
   averages, disk counters and memory reclamation from the last sync time
   to [now] under the currently running workloads.  Samplers (the server
   probe) call [sync] first, so the observable counters are exact at the
   sampling instant regardless of event granularity. *)

let user_hz = 100.0  (* jiffies per second, as on Linux *)

type spec = {
  name : string;
  ip : string;
  cpu_model : string;
  cpu_mhz : float;
  bogomips : float;
  ram_bytes : int;
  os : string;
  (* effective multiply-accumulate rate of the thesis's matrix program on
     this machine (ops/second); encodes the Fig 5.2 benchmark shape *)
  matmul_rate : float;
  disk_rate : float;  (* blocks/second the disk can serve *)
}

type workload = {
  wl_name : string;
  cpu_demand : float;     (* runnable processes worth of CPU, e.g. 1.0 *)
  mem_bytes : int;
  disk_read_ps : float;   (* read requests per second *)
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
  (* cumulative CPU jiffies, /proc/stat "cpu" line *)
  mutable jiffies_user : float;
  mutable jiffies_nice : float;
  mutable jiffies_system : float;
  mutable jiffies_idle : float;
  mutable load1 : float;
  mutable load5 : float;
  mutable load15 : float;
  (* memory pools, bytes *)
  mutable mem_os_used : int;   (* kernel + resident daemons *)
  mutable mem_buffers : int;
  mutable mem_cached : int;
  mutable workloads : (int * workload) list;
  mutable next_workload_id : int;
  (* cumulative disk counters, /proc/stat "disk_io" line *)
  mutable disk_rreq : float;
  mutable disk_wreq : float;
  mutable disk_rblocks : float;
  mutable disk_wblocks : float;
  eth : netdev;
  mutable failed : bool;
}

let create ?(now = 0.0) spec =
  {
    spec;
    last_sync = now;
    jiffies_user = 0.0;
    jiffies_nice = 0.0;
    jiffies_system = 0.0;
    jiffies_idle = 0.0;
    load1 = 0.0;
    load5 = 0.0;
    load15 = 0.0;
    mem_os_used = spec.ram_bytes / 8;
    mem_buffers = spec.ram_bytes / 14;
    mem_cached = spec.ram_bytes * 3 / 10;
    workloads = [];
    next_workload_id = 0;
    disk_rreq = 0.0;
    disk_wreq = 0.0;
    disk_rblocks = 0.0;
    disk_wblocks = 0.0;
    eth = { rbytes = 0.0; rpackets = 0.0; tbytes = 0.0; tpackets = 0.0 };
    failed = false;
  }

let spec t = t.spec

let cpu_demand t =
  List.fold_left (fun acc (_, w) -> acc +. w.cpu_demand) 0.0 t.workloads

(* Fraction of CPU time left idle under the current demand. *)
let mem_workloads t =
  List.fold_left (fun acc (_, w) -> acc + w.mem_bytes) 0 t.workloads

let mem_used t =
  min t.spec.ram_bytes
    (t.mem_os_used + t.mem_buffers + t.mem_cached + mem_workloads t)

let mem_free t = t.spec.ram_bytes - mem_used t

(* CPU share a new job of demand 1 would receive: the scheduler splits the
   processor evenly among runnable processes. *)
let compute_share t = 1.0 /. (1.0 +. cpu_demand t)

let decay ~dt ~tau = Float.exp (-.dt /. tau)

let sync t ~now =
  let dt = now -. t.last_sync in
  if dt > 0.0 then begin
    let demand = cpu_demand t in
    let busy = Float.min 1.0 demand in
    t.jiffies_user <- t.jiffies_user +. (dt *. user_hz *. busy);
    t.jiffies_idle <- t.jiffies_idle +. (dt *. user_hz *. (1.0 -. busy));
    (* exponentially-weighted load averages toward the run-queue length *)
    let update load tau =
      let k = decay ~dt ~tau in
      (load *. k) +. (demand *. (1.0 -. k))
    in
    t.load1 <- update t.load1 60.0;
    t.load5 <- update t.load5 300.0;
    t.load15 <- update t.load15 900.0;
    (* disk activity of the running workloads *)
    let rps, wps =
      List.fold_left
        (fun (r, w) (_, wl) -> (r +. wl.disk_read_ps, w +. wl.disk_write_ps))
        (0.0, 0.0) t.workloads
    in
    let rreq = rps *. dt and wreq = wps *. dt in
    t.disk_rreq <- t.disk_rreq +. rreq;
    t.disk_wreq <- t.disk_wreq +. wreq;
    t.disk_rblocks <- t.disk_rblocks +. (rreq *. 8.0);
    t.disk_wblocks <- t.disk_wblocks +. (wreq *. 8.0);
    (* The page cache grows with disk traffic until free memory hits a
       small floor; under pressure it evicts buffer memory first — the
       Table 4.1 behaviour (free collapses, buffers shrink, cache grows). *)
    let min_free = 4 * 1024 * 1024 in
    let growth = int_of_float ((rreq +. wreq) *. 8.0 *. 512.0) in
    if growth > 0 then begin
      let room = max 0 (mem_free t - min_free) in
      let room =
        if growth > room then begin
          let take = min t.mem_buffers (growth - room) in
          t.mem_buffers <- t.mem_buffers - take;
          room + take
        end
        else room
      in
      t.mem_cached <- t.mem_cached + min growth room
    end;
    t.last_sync <- now
  end
  else t.last_sync <- Float.max t.last_sync now

(* Allocating workload memory evicts buffers, then page cache, mimicking
   the SuperPI footprint of Table 4.1. *)
let reclaim_for t bytes =
  let need = bytes - mem_free t in
  if need > 0 then begin
    let from_buffers = min need t.mem_buffers in
    t.mem_buffers <- t.mem_buffers - from_buffers;
    let need = need - from_buffers in
    if need > 0 then begin
      let from_cached = min need t.mem_cached in
      t.mem_cached <- t.mem_cached - from_cached
    end
  end

let add_workload t ~now wl =
  sync t ~now;
  reclaim_for t wl.mem_bytes;
  let id = t.next_workload_id in
  t.next_workload_id <- id + 1;
  t.workloads <- (id, wl) :: t.workloads;
  id

let remove_workload t ~now id =
  sync t ~now;
  let before = List.length t.workloads in
  t.workloads <- List.filter (fun (i, _) -> i <> id) t.workloads;
  List.length t.workloads < before

let set_failed t failed = t.failed <- failed

let failed t = t.failed

let count_rx t ~bytes =
  t.eth.rbytes <- t.eth.rbytes +. bytes;
  t.eth.rpackets <- t.eth.rpackets +. Float.max 1.0 (bytes /. 1448.0)

let count_tx t ~bytes =
  t.eth.tbytes <- t.eth.tbytes +. bytes;
  t.eth.tpackets <- t.eth.tpackets +. Float.max 1.0 (bytes /. 1448.0)

(* Canned workloads *)

(* The thesis's SuperPI run with parameter 25: ~150 MB footprint (100 MB
   resident plus scratch files that fill the page cache), CPU pinned,
   load above 1. *)
let superpi =
  {
    wl_name = "superpi";
    cpu_demand = 1.1;
    mem_bytes = 100 * 1024 * 1024;
    disk_read_ps = 200.0;
    disk_write_ps = 400.0;
  }

let cpu_hog ~demand =
  { wl_name = "cpu_hog"; cpu_demand = demand; mem_bytes = 4 * 1024 * 1024;
    disk_read_ps = 0.0; disk_write_ps = 0.0 }

let disk_hog ~reqps =
  { wl_name = "disk_hog"; cpu_demand = 0.2; mem_bytes = 8 * 1024 * 1024;
    disk_read_ps = reqps /. 2.0; disk_write_ps = reqps /. 2.0 }
