(* A cluster bundles the simulation engine, topology, packet and flow
   planes, and the machines attached to topology nodes.  It wires the
   network byte-accounting hooks into the machines' interface counters so
   the probe's /proc/net/dev figures reflect actual traffic. *)

type t = {
  engine : Smart_sim.Engine.t;
  rng : Smart_util.Prng.t;
  topo : Smart_net.Topology.t;
  stack : Smart_net.Netstack.t;
  flows : Smart_net.Flow.t;
  machines : (int, Machine.t) Hashtbl.t;
  trace : Smart_sim.Trace.t option;
}

let machine_opt t id = Hashtbl.find_opt t.machines id

let machine t id =
  match machine_opt t id with
  | Some m -> m
  | None -> invalid_arg (Printf.sprintf "Cluster.machine: node %d has none" id)

let create ?(seed = 42) ?trace () =
  let engine = Smart_sim.Engine.create () in
  let rng = Smart_util.Prng.create ~seed in
  let topo = Smart_net.Topology.create () in
  let stack =
    Smart_net.Netstack.create ?trace ~engine ~topo
      ~rng:(Smart_util.Prng.split rng) ()
  in
  let flows = Smart_net.Flow.create ?trace ~engine ~topo () in
  let t =
    { engine; rng; topo; stack; flows; machines = Hashtbl.create 16; trace }
  in
  (* account packet-plane fragments on the endpoint machines *)
  Smart_net.Netstack.set_byte_hook stack
    (Some
       (fun ~src ~dst bytes ->
         (match machine_opt t src with
         | Some m -> Machine.count_tx m ~bytes:(float_of_int bytes)
         | None -> ());
         match machine_opt t dst with
         | Some m -> Machine.count_rx m ~bytes:(float_of_int bytes)
         | None -> ()));
  (* account flow-plane progress on the transfer endpoints *)
  Smart_net.Flow.set_progress_hook flows
    (Some
       (fun ~src ~dst bytes ->
         (match machine_opt t src with
         | Some m -> Machine.count_tx m ~bytes
         | None -> ());
         match machine_opt t dst with
         | Some m -> Machine.count_rx m ~bytes
         | None -> ()));
  t

let engine t = t.engine

let topology t = t.topo

let stack t = t.stack

let flows t = t.flows

let rng t = t.rng

let trace t = t.trace

let now t = Smart_sim.Engine.now t.engine

let add_switch t ~name ~ip = Smart_net.Topology.add_node t.topo ~name ~ip

let add_machine ?nic t (spec : Machine.spec) =
  let id =
    Smart_net.Topology.add_node ?nic t.topo ~name:spec.Machine.name
      ~ip:spec.Machine.ip
  in
  Hashtbl.replace t.machines id (Machine.create ~now:(now t) spec);
  id

let link t ~a ~b conf = Smart_net.Topology.add_link t.topo ~a ~b conf

let resolve t key = Smart_net.Topology.resolve t.topo key

let resolve_exn t key =
  match resolve t key with
  | Some id -> id
  | None -> invalid_arg ("Cluster.resolve_exn: unknown host " ^ key)

(* Symmetric shaping of both directions of a machine's access link.
   rshaper had a queue of roughly one frame, so the bucket depth is a
   single MTU: probe streams then observe the shaped rate rather than
   bursting through. *)
let shape_access t ~node ~rate_bytes_per_sec =
  let shaped = ref false in
  Smart_net.Topology.iter_channels t.topo (fun c ->
      if c.Smart_net.Link.src = node || c.Smart_net.Link.dst = node then begin
        Smart_net.Link.set_shaper c
          (match rate_bytes_per_sec with
          | None -> None
          | Some rate -> Some (Smart_net.Shaper.create ~burst:1500.0 ~rate ()));
        shaped := true
      end);
  !shaped
