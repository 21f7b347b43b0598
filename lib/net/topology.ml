(* Network topology: nodes with NIC parameters, bidirectional links made
   of two directional channels, and static shortest-path (hop count)
   routing computed by BFS on demand. *)

type nic = {
  mtu : int;             (* bytes, including IP header *)
  virtual_if : bool;     (* loopback / VMware NAT: no init cost, no knee *)
}

let default_nic = { mtu = 1500; virtual_if = false }

type node = { id : int; name : string; ip : string; nic : nic }

type t = {
  mutable nodes : node array;
  mutable channels : Link.t array;
  by_name : (string, int) Hashtbl.t;
  by_ip : (string, int) Hashtbl.t;
  (* adjacency: node id -> outgoing channel ids *)
  mutable adjacency : int list array;
  (* next_hop.(src).(dst) = outgoing channel id, or -1 *)
  mutable next_hop : int array array;
  mutable routes_dirty : bool;
}

let create () =
  {
    nodes = [||];
    channels = [||];
    by_name = Hashtbl.create 16;
    by_ip = Hashtbl.create 16;
    adjacency = [||];
    next_hop = [||];
    routes_dirty = true;
  }

let node_count t = Array.length t.nodes

let node t id =
  if id < 0 || id >= node_count t then invalid_arg "Topology.node: bad id";
  t.nodes.(id)

let add_node ?(nic = default_nic) t ~name ~ip =
  if Hashtbl.mem t.by_name name then
    invalid_arg ("Topology.add_node: duplicate name " ^ name);
  if Hashtbl.mem t.by_ip ip then
    invalid_arg ("Topology.add_node: duplicate ip " ^ ip);
  let id = node_count t in
  let n = { id; name; ip; nic } in
  t.nodes <- Array.append t.nodes [| n |];
  t.adjacency <- Array.append t.adjacency [| [] |];
  Hashtbl.replace t.by_name name id;
  Hashtbl.replace t.by_ip ip id;
  t.routes_dirty <- true;
  id

let find_by_name t name = Hashtbl.find_opt t.by_name name

let find_by_ip t ip = Hashtbl.find_opt t.by_ip ip

let resolve t key =
  match find_by_name t key with
  | Some id -> Some id
  | None -> find_by_ip t key

let add_channel t ~src ~dst conf =
  let id = Array.length t.channels in
  let c = Link.create ~id ~src ~dst conf in
  t.channels <- Array.append t.channels [| c |];
  t.adjacency.(src) <- id :: t.adjacency.(src);
  t.routes_dirty <- true;
  c

(* Bidirectional link: two independent channels with the same conf. *)
let add_link t ~a ~b conf =
  let fwd = add_channel t ~src:a ~dst:b conf in
  let rev = add_channel t ~src:b ~dst:a conf in
  (fwd, rev)

let recompute_routes t =
  let n = node_count t in
  t.next_hop <- Array.init n (fun _ -> Array.make n (-1));
  for src = 0 to n - 1 do
    (* BFS from [src]; record for every reached node the first channel
       taken out of [src] on a shortest path. *)
    let first_channel = Array.make n (-1) in
    let visited = Array.make n false in
    visited.(src) <- true;
    let q = Queue.create () in
    Queue.add src q;
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      let try_edge cid =
        let c = t.channels.(cid) in
        let v = c.Link.dst in
        if not visited.(v) then begin
          visited.(v) <- true;
          first_channel.(v) <- (if u = src then cid else first_channel.(u));
          Queue.add v q
        end
      in
      List.iter try_edge (List.rev t.adjacency.(u))
    done;
    Array.blit first_channel 0 t.next_hop.(src) 0 n
  done;
  t.routes_dirty <- false

let next_hop t ~src ~dst =
  if t.routes_dirty then recompute_routes t;
  let cid = t.next_hop.(src).(dst) in
  if cid < 0 then None else Some t.channels.(cid)

exception No_route of { src : int; dst : int }

(* Full channel path, raising when disconnected.  Paths are short, so we
   just chain next-hop lookups. *)
let path t ~src ~dst =
  if src = dst then []
  else begin
    let rec walk u acc guard =
      if guard > node_count t then raise (No_route { src; dst });
      match next_hop t ~src:u ~dst with
      | None -> raise (No_route { src; dst })
      | Some c ->
        if c.Link.dst = dst then List.rev (c :: acc)
        else walk c.Link.dst (c :: acc) (guard + 1)
    in
    walk src [] 0
  end

let iter_channels t f = Array.iter f t.channels
