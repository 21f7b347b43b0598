(* Distributed matrix multiplication over the simulated cluster
   (Fig C.1/C.2): the master ships block tasks to workers over TCP flows,
   workers compute at their machine's effective rate, result tiles flow
   back, and idle workers self-schedule the next task from the queue.

   Worker compute time = task_ops / (matmul_rate * compute_share), where
   compute_share accounts for competing workloads (SuperPI in Table 5.6).
   While serving, a worker runs a demand-1 job on its machine, so the
   probes observe the load the computation itself creates. *)

type worker_stats = {
  host : string;
  tasks_done : int;
  compute_time : float;
  bytes_in : int;
  bytes_out : int;
}

type result = {
  makespan : float;          (* seconds of virtual time *)
  tasks : int;
  workers : worker_stats list;
}

type worker_state = {
  node : int;
  machine : Smart_host.Machine.t;
  mutable done_count : int;
  mutable compute_total : float;
  mutable in_bytes : int;
  mutable out_bytes : int;
  mutable job : int option;  (* workload handle while serving *)
}

(* Local single-machine run time for the benchmark chart (Fig 5.2): the
   whole n^3 operation count at the machine's effective rate. *)
let local_time ~(machine : Smart_host.Machine.t) ~n =
  let ops = float_of_int n *. float_of_int n *. float_of_int n in
  let spec = Smart_host.Machine.spec machine in
  ops
  /. (spec.Smart_host.Machine.matmul_rate *. Smart_host.Machine.compute_share machine)

let run cluster ~master ~workers ~n ~blk =
  if workers = [] then invalid_arg "Matmul.run: no workers";
  let engine = Smart_host.Cluster.engine cluster in
  let flows = Smart_host.Cluster.flows cluster in
  let queue = Queue.create () in
  List.iter (fun b -> Queue.add b queue) (Matrix.blocks ~n ~blk);
  let total_tasks = Queue.length queue in
  let completed = ref 0 in
  let start = Smart_sim.Engine.now engine in
  let states =
    List.map
      (fun node ->
        let machine = Smart_host.Cluster.machine cluster node in
        {
          node;
          machine;
          done_count = 0;
          compute_total = 0.0;
          in_bytes = 0;
          out_bytes = 0;
          job = None;
        })
      workers
  in
  let finish_worker st =
    match st.job with
    | Some handle ->
      ignore
        (Smart_host.Machine.remove_workload st.machine
           ~now:(Smart_sim.Engine.now engine) handle);
      st.job <- None
    | None -> ()
  in
  let rec next_task st =
    match Queue.take_opt queue with
    | None -> finish_worker st
    | Some block ->
      let input = Matrix.task_input_bytes ~n block in
      st.in_bytes <- st.in_bytes + input;
      (* input flow: master -> worker *)
      ignore
        (Smart_net.Flow.start flows ~src:master ~dst:st.node ~bytes:input
           ~on_complete:(fun _ -> compute st block))
  and compute st block =
    let now = Smart_sim.Engine.now engine in
    Smart_host.Machine.sync st.machine ~now;
    (* the serving job itself counts as one runnable process, so the
       share excludes it: share over the other demand *)
    let other_demand =
      Smart_host.Machine.cpu_demand st.machine
      -. (match st.job with Some _ -> 1.0 | None -> 0.0)
    in
    let share = 1.0 /. (1.0 +. Float.max 0.0 other_demand) in
    let spec = Smart_host.Machine.spec st.machine in
    let rate = spec.Smart_host.Machine.matmul_rate *. share in
    let duration = float_of_int (Matrix.task_ops ~n block) /. rate in
    st.compute_total <- st.compute_total +. duration;
    ignore
      (Smart_sim.Engine.schedule_after engine ~delay:duration (fun () ->
           let output = Matrix.task_output_bytes block in
           st.out_bytes <- st.out_bytes + output;
           (* result flow: worker -> master *)
           ignore
             (Smart_net.Flow.start flows ~src:st.node ~dst:master ~bytes:output
                ~on_complete:(fun _ ->
                  st.done_count <- st.done_count + 1;
                  incr completed;
                  next_task st))))
  in
  (* every worker picks up a demand-1 serving job, then self-schedules *)
  List.iter
    (fun st ->
      st.job <-
        Some
          (Smart_host.Machine.add_workload st.machine
             ~now:(Smart_sim.Engine.now engine)
             (Smart_host.Machine.cpu_hog ~demand:1.0));
      next_task st)
    states;
  ignore
    (Smart_measure.Runner.run_until engine ~deadline:(start +. 3600.0)
       (fun () -> !completed >= total_tasks));
  List.iter finish_worker states;
  let makespan = Smart_sim.Engine.now engine -. start in
  {
    makespan;
    tasks = total_tasks;
    workers =
      List.map
        (fun st ->
          {
            host =
              (Smart_host.Machine.spec st.machine).Smart_host.Machine.name;
            tasks_done = st.done_count;
            compute_time = st.compute_total;
            bytes_in = st.in_bytes;
            bytes_out = st.out_bytes;
          })
        states;
  }
