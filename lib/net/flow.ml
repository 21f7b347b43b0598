(* Flow plane: bulk TCP-like transfers as fluid flows.

   Whenever the set of active flows changes, progress since the previous
   change is banked, max-min fair rates are recomputed, the per-channel
   [flow_load] (seen by the packet plane as background utilisation) is
   refreshed, and the next completion event is (re)scheduled. *)

type stats = {
  flow_id : int;
  src : int;
  dst : int;
  bytes : int;
  started_at : float;
  finished_at : float;
  throughput : float;  (* bytes per second *)
}

type flow = {
  id : int;
  src : int;
  dst : int;
  links : Link.t list;
  total : float;
  mutable remaining : float;
  started_at : float;
  mutable rate : float;
  on_complete : stats -> unit;
}

type t = {
  engine : Smart_sim.Engine.t;
  topo : Topology.t;
  mutable flows : flow list;
  mutable next_id : int;
  mutable last_update : float;
  mutable completion : Smart_sim.Engine.handle option;
  mutable on_progress : (src:int -> dst:int -> float -> unit) option;
  trace : Smart_sim.Trace.t option;
}

(* Node-local transfer rate, bytes/second. *)
let local_rate = 4e9 /. 8.0

let create ?trace ~engine ~topo () =
  {
    engine;
    topo;
    flows = [];
    next_id = 0;
    last_update = 0.0;
    completion = None;
    on_progress = None;
    trace;
  }

let tr t fmt =
  match t.trace with
  | Some trace ->
    Smart_sim.Trace.recordf trace ~now:(Smart_sim.Engine.now t.engine)
      ~category:"flow" fmt
  | None -> Fmt.kstr (fun _ -> ()) fmt

let set_progress_hook t hook = t.on_progress <- hook

(* Bank the bytes moved since [last_update] at the current rates. *)
let bank_progress t ~now =
  let dt = now -. t.last_update in
  if dt > 0.0 then
    List.iter
      (fun f ->
        let delta = Float.min f.remaining (f.rate *. dt) in
        if delta > 0.0 then begin
          f.remaining <- f.remaining -. delta;
          match t.on_progress with
          | None -> ()
          | Some hook -> hook ~src:f.src ~dst:f.dst delta
        end)
      t.flows;
  t.last_update <- now

let recompute_rates t =
  let flows = Array.of_list t.flows in
  (* collect and index the distinct channels in use *)
  let table = Hashtbl.create 16 in
  let rev_channels = ref [] in
  let index_of (c : Link.t) =
    match Hashtbl.find_opt table c.Link.id with
    | Some i -> i
    | None ->
      let i = Hashtbl.length table in
      Hashtbl.replace table c.Link.id i;
      rev_channels := c :: !rev_channels;
      i
  in
  let flow_links = Array.map (fun f -> List.map index_of f.links) flows in
  let channels = Array.of_list (List.rev !rev_channels) in
  let capacities = Array.map Link.capacity_for_flows channels in
  let rates = Fairshare.rates ~capacities ~flows:flow_links in
  Array.iteri
    (fun i f ->
      f.rate <- (if f.links = [] then local_rate else rates.(i)))
    flows;
  (* publish the aggregate flow load to the packet plane *)
  Array.iter (fun (c : Link.t) -> c.Link.flow_load <- 0.0) channels;
  Array.iter
    (fun f ->
      List.iter
        (fun (c : Link.t) -> c.Link.flow_load <- c.Link.flow_load +. f.rate)
        f.links)
    flows

let stats_of f ~now =
  let duration = Float.max 1e-9 (now -. f.started_at) in
  {
    flow_id = f.id;
    src = f.src;
    dst = f.dst;
    bytes = int_of_float f.total;
    started_at = f.started_at;
    finished_at = now;
    throughput = f.total /. duration;
  }

let rec schedule_next_completion t =
  (match t.completion with
  | Some h ->
    Smart_sim.Engine.cancel h;
    t.completion <- None
  | None -> ());
  let eta =
    List.fold_left
      (fun acc f ->
        if f.rate > 0.0 then Float.min acc (f.remaining /. f.rate) else acc)
      Float.infinity t.flows
  in
  if eta < Float.infinity then
    t.completion <-
      Some
        (Smart_sim.Engine.schedule_at t.engine
           ~time:(t.last_update +. Float.max eta 0.0)
           (fun () -> update t))

(* Re-synchronise the flow plane with the clock: bank progress, detach
   finished flows, recompute rates, re-arm the next completion, and only
   then fire completion callbacks (which may start new flows and
   re-enter [update] safely). *)
and update t =
  let now = Smart_sim.Engine.now t.engine in
  bank_progress t ~now;
  let finished, running = List.partition (fun f -> f.remaining <= 0.5) t.flows in
  t.flows <- running;
  recompute_rates t;
  schedule_next_completion t;
  List.iter
    (fun f ->
      let stats = stats_of f ~now in
      tr t "flow#%d %d->%d complete: %d B in %.3f s (%.0f B/s)" f.id f.src
        f.dst stats.bytes (now -. f.started_at) stats.throughput;
      f.on_complete stats)
    finished

let start t ~src ~dst ~bytes ~on_complete =
  if bytes <= 0 then invalid_arg "Flow.start: bytes must be positive";
  let now = Smart_sim.Engine.now t.engine in
  bank_progress t ~now;
  let links = if src = dst then [] else Topology.path t.topo ~src ~dst in
  let id = t.next_id in
  t.next_id <- t.next_id + 1;
  let f =
    {
      id;
      src;
      dst;
      links;
      total = float_of_int bytes;
      remaining = float_of_int bytes;
      started_at = now;
      rate = 0.0;
      on_complete;
    }
  in
  t.flows <- f :: t.flows;
  recompute_rates t;
  schedule_next_completion t;
  tr t "flow#%d %d->%d start: %d B (rate %.0f B/s)" id src dst bytes f.rate;
  id

(* Kill a flow without firing its callback (failure injection). *)
let abort t ~flow_id =
  let now = Smart_sim.Engine.now t.engine in
  bank_progress t ~now;
  let before = List.length t.flows in
  t.flows <- List.filter (fun f -> f.id <> flow_id) t.flows;
  let removed = List.length t.flows < before in
  if removed then begin
    tr t "flow#%d aborted" flow_id;
    recompute_rates t;
    schedule_next_completion t
  end;
  removed
