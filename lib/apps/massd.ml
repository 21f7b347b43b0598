(* The massive download program massd (§5.3.2): fetch [data_kb] kilobytes
   in [blk_kb]-kilobyte blocks from several file servers at once.  Each
   server streams one block at a time; a server that finishes its block
   self-schedules the next from the shared queue, so fast servers
   naturally carry more of the file — the behaviour that makes server
   selection matter in Tables 5.7-5.9. *)

type server_stats = {
  host : string;
  blocks : int;
  bytes : int;
}

type result = {
  elapsed : float;            (* virtual seconds *)
  bytes_total : int;
  throughput : float;         (* bytes per second *)
  servers : server_stats list;
}

type server_state = {
  node : int;
  name : string;
  mutable blocks_done : int;
  mutable bytes_done : int;
  mutable current_flow : int option;  (* flow id of the in-flight block *)
  mutable current_bytes : int;
  mutable dead : bool;
}

(* Failure injection for the fault-tolerance extension (Ch. 6 of the
   thesis): at [at] seconds into the run, [host] dies — its in-flight
   block is aborted and requeued on the surviving servers. *)
type failure = { host : string; at : float }

let run ?(failures = []) cluster ~client ~servers
    ~data_kb ~blk_kb =
  if servers = [] then invalid_arg "Massd.run: no servers";
  if data_kb <= 0 || blk_kb <= 0 then invalid_arg "Massd.run: bad sizes";
  let engine = Smart_host.Cluster.engine cluster in
  let flows = Smart_host.Cluster.flows cluster in
  let topo = Smart_host.Cluster.topology cluster in
  let block_bytes = blk_kb * 1024 in
  let total_blocks = (data_kb + blk_kb - 1) / blk_kb in
  let total_bytes = data_kb * 1024 in
  (* queue of block sizes (the last block may be short) *)
  let queue = Queue.create () in
  for i = 0 to total_blocks - 1 do
    let bytes =
      if i = total_blocks - 1 then
        max 1 (total_bytes - ((total_blocks - 1) * block_bytes))
      else block_bytes
    in
    Queue.add bytes queue
  done;
  let completed = ref 0 in
  let start = Smart_sim.Engine.now engine in
  let states =
    List.map
      (fun node ->
        {
          node;
          name = (Smart_net.Topology.node topo node).Smart_net.Topology.name;
          blocks_done = 0;
          bytes_done = 0;
          current_flow = None;
          current_bytes = 0;
          dead = false;
        })
      servers
  in
  let rec next_block st =
    if not st.dead then
      match Queue.take_opt queue with
      | None -> st.current_flow <- None
      | Some bytes ->
        st.current_bytes <- bytes;
        st.current_flow <-
          Some
            (Smart_net.Flow.start flows ~src:st.node ~dst:client ~bytes
               ~on_complete:(fun _ ->
                 st.current_flow <- None;
                 st.blocks_done <- st.blocks_done + 1;
                 st.bytes_done <- st.bytes_done + bytes;
                 incr completed;
                 next_block st))
  in
  (* schedule the injected failures *)
  List.iter
    (fun { host; at } ->
      match
        List.find_opt
          (fun st -> String.equal st.name host)
          states
      with
      | None -> invalid_arg ("Massd.run: failure host not a server: " ^ host)
      | Some st ->
        ignore
          (Smart_sim.Engine.schedule_at engine ~time:(start +. at) (fun () ->
               st.dead <- true;
               (* abort the in-flight transfer and requeue its block *)
               (match st.current_flow with
               | Some flow_id ->
                 ignore (Smart_net.Flow.abort flows ~flow_id);
                 st.current_flow <- None;
                 Queue.add st.current_bytes queue
               | None -> ());
               (* wake an idle survivor, if any *)
               List.iter
                 (fun other ->
                   if
                     (not other.dead)
                     && other.current_flow = None
                     && not (Queue.is_empty queue)
                   then next_block other)
                 states)))
    failures;
  List.iter next_block states;
  let all_alive_dead () = List.for_all (fun st -> st.dead) states in
  ignore
    (Smart_measure.Runner.run_until engine ~deadline:(start +. 36000.0)
       (fun () -> !completed >= total_blocks || all_alive_dead ()));
  let elapsed = Float.max 1e-9 (Smart_sim.Engine.now engine -. start) in
  {
    elapsed;
    bytes_total = total_bytes;
    throughput = float_of_int total_bytes /. elapsed;
    servers =
      List.map
        (fun st ->
          { host = st.name; blocks = st.blocks_done; bytes = st.bytes_done })
        states;
  }
