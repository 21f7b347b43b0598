(* Packet plane: UDP datagrams with IP fragmentation, per-hop
   store-and-forward forwarding over the topology channels, reassembly,
   ICMP port-unreachable generation, and listener dispatch.

   Delay model per datagram of payload S (paper Formula 3.6):
     T = S/B + min(S', MTU)/Speed_init + Overhead_sys + Overhead_net
   where B is the bottleneck residual rate, S' the first-fragment wire
   size; the init term is skipped on virtual interfaces. *)

let ip_header = 20
let udp_header = 8
let icmp_wire_size = 56

type handler = now:float -> Packet.t -> unit

type pending = {
  packet : Packet.t;
  mutable fragments_left : int;
  mutable last_arrival : float;
}

type t = {
  engine : Smart_sim.Engine.t;
  topo : Topology.t;
  rng : Smart_util.Prng.t;
  mutable next_id : int;
  listeners : (int * int, handler) Hashtbl.t;       (* (node, port) *)
  icmp_handlers : (int, handler) Hashtbl.t;          (* node *)
  reassembly : (int, pending) Hashtbl.t;             (* packet id *)
  mutable on_bytes : (src:int -> dst:int -> int -> unit) option;
  trace : Smart_sim.Trace.t option;
}

let create ?trace ~engine ~topo ~rng () =
  {
    engine;
    topo;
    rng;
    next_id = 0;
    listeners = Hashtbl.create 64;
    icmp_handlers = Hashtbl.create 16;
    reassembly = Hashtbl.create 64;
    on_bytes = None;
    trace;
  }

(* Record a trace line when a trace is attached (no formatting cost
   otherwise). *)
let tr t ~now fmt =
  match t.trace with
  | Some trace -> Smart_sim.Trace.recordf trace ~now ~category:"net" fmt
  | None -> Fmt.kstr (fun _ -> ()) fmt

let engine t = t.engine

let topology t = t.topo

let set_byte_hook t hook = t.on_bytes <- hook

let listen_udp t ~node ~port handler =
  Hashtbl.replace t.listeners (node, port) handler

let unlisten_udp t ~node ~port = Hashtbl.remove t.listeners (node, port)

let on_icmp t ~node handler = Hashtbl.replace t.icmp_handlers node handler

(* Per-datagram end-host processing: a 60 us mean plus the magnitude of
   a 8 us-sigma gaussian, seconds. *)
let overhead t =
  60e-6 +. Float.abs (Smart_util.Prng.gaussian t.rng ~mu:0.0 ~sigma:8e-6)

(* Fragment wire sizes for a datagram of [payload] transport bytes
   (UDP header included by the caller) through an interface of [mtu]. *)
let fragment_sizes ~mtu ~payload =
  let max_frag = mtu - ip_header in
  if max_frag <= 0 then invalid_arg "Netstack.fragment_sizes: mtu too small";
  let rec cut remaining acc =
    if remaining <= 0 then List.rev acc
    else begin
      let chunk = min remaining max_frag in
      cut (remaining - chunk) ((chunk + ip_header) :: acc)
    end
  in
  cut (max 1 payload) []

(* The paper's Speed_init, bytes/second: estimated at 25 Mbps in the
   thesis. *)
let speed_init = 25e6 /. 8.0

(* Node-local delivery rate, bytes/second. *)
let loopback_rate = 4e9 /. 8.0

(* The paper's interface initialisation cost: the first frame is pushed to
   the physical interface at Speed_init; capped at one MTU of data. *)
let init_cost nic ~wire_total =
  if nic.Topology.virtual_if then 0.0
  else float_of_int (min wire_total nic.Topology.mtu) /. speed_init

let count_bytes t ~src ~dst size =
  match t.on_bytes with
  | None -> ()
  | Some f -> f ~src ~dst size

let rec deliver t (pkt : Packet.t) ~now =
  match pkt.proto with
  | Packet.Udp { dport; _ } ->
    (match Hashtbl.find_opt t.listeners (pkt.dst, dport) with
    | Some h ->
      tr t ~now "deliver %a" Packet.pp pkt;
      h ~now pkt
    | None ->
      tr t ~now "port-unreachable %a" Packet.pp pkt;
      (* closed port: ICMP port unreachable back to the sender *)
      let reply =
        Packet.Icmp
          (Packet.Port_unreachable { orig_id = pkt.id; orig_dport = dport })
      in
      ignore
        (send_raw t ~src:pkt.dst ~dst:pkt.src ~proto:reply
           ~transport_bytes:(icmp_wire_size - ip_header) ~payload:"" ~now))
  | Packet.Icmp _ ->
    (match Hashtbl.find_opt t.icmp_handlers pkt.dst with
    | Some h -> h ~now pkt
    | None -> ())

and forward_fragment t pkt ~at_node ~hops ~now ~size =
  if at_node = pkt.Packet.dst then begin
    match Hashtbl.find_opt t.reassembly pkt.Packet.id with
    | None -> ()  (* some sibling fragment was lost; datagram dropped *)
    | Some pending ->
      pending.fragments_left <- pending.fragments_left - 1;
      pending.last_arrival <- Float.max pending.last_arrival now;
      if pending.fragments_left = 0 then begin
        Hashtbl.remove t.reassembly pkt.Packet.id;
        let finish = pending.last_arrival +. overhead t in
        ignore
          (Smart_sim.Engine.schedule_at t.engine ~time:finish (fun () ->
               deliver t pending.packet ~now:finish))
      end
  end
  else if hops >= pkt.Packet.ttl then begin
    (* TTL exhausted: one Time-Exceeded per datagram, from this router *)
    if Hashtbl.mem t.reassembly pkt.Packet.id then begin
      Hashtbl.remove t.reassembly pkt.Packet.id;
      tr t ~now "ttl-exceeded %a at node %d" Packet.pp pkt at_node;
      ignore
        (send_raw t ~src:at_node ~dst:pkt.Packet.src
           ~proto:
             (Packet.Icmp
                (Packet.Time_exceeded
                   { orig_id = pkt.Packet.id; at_node }))
           ~transport_bytes:(icmp_wire_size - ip_header) ~payload:"" ~now)
    end
  end
  else begin
    match Topology.next_hop t.topo ~src:at_node ~dst:pkt.Packet.dst with
    | None ->
      tr t ~now "unroutable %a at node %d" Packet.pp pkt at_node;
      Hashtbl.remove t.reassembly pkt.Packet.id  (* unroutable: drop *)
    | Some chan ->
      (match Link.transmit chan ~rng:t.rng ~now ~size with
      | None ->
        tr t ~now "lost fragment of %a on link %d" Packet.pp pkt
          chan.Link.id;
        Hashtbl.remove t.reassembly pkt.Packet.id  (* lost *)
      | Some arrival ->
        count_bytes t ~src:at_node ~dst:chan.Link.dst size;
        ignore
          (Smart_sim.Engine.schedule_at t.engine ~time:arrival (fun () ->
               forward_fragment t pkt ~at_node:chan.Link.dst ~hops:(hops + 1)
                 ~now:arrival ~size)))
  end

(* Emit a datagram: fragment, pay the interface-initialisation cost on the
   first fragment, then push fragments back-to-back into the first hop. *)
and send_raw ?(ttl = 64) t ~src ~dst ~proto ~transport_bytes ~payload ~now =
  let id = t.next_id in
  t.next_id <- t.next_id + 1;
  let pkt =
    {
      Packet.id;
      src;
      dst;
      proto;
      size = transport_bytes;
      ttl;
      sent_at = now;
      payload;
    }
  in
  if src = dst then begin
    (* node-local delivery: loopback interface, no fragmentation knee and
       a fraction of the end-host cost (no NIC or driver involved) *)
    let delay =
      (overhead t /. 3.0) +. (float_of_int transport_bytes /. loopback_rate)
    in
    let at = now +. delay in
    ignore
      (Smart_sim.Engine.schedule_at t.engine ~time:at (fun () ->
           deliver t pkt ~now:at))
  end
  else begin
    let nic = (Topology.node t.topo src).Topology.nic in
    let frags = fragment_sizes ~mtu:nic.Topology.mtu ~payload:transport_bytes in
    let wire_total = List.fold_left ( + ) 0 frags in
    Hashtbl.replace t.reassembly id
      {
        packet = pkt;
        fragments_left = List.length frags;
        last_arrival = now;
      };
    let depart = now +. overhead t +. init_cost nic ~wire_total in
    (* Fragments enter the first channel at the same instant; its FIFO
       [busy_until] serialises them back-to-back. *)
    List.iter
      (fun size ->
        ignore
          (Smart_sim.Engine.schedule_at t.engine ~time:depart (fun () ->
               forward_fragment t pkt ~at_node:src ~hops:0 ~now:depart ~size)))
      frags
  end;
  id

let send_udp ?(payload = "") ?ttl t ~src ~dst ~sport ~dport ~size =
  let now = Smart_sim.Engine.now t.engine in
  send_raw ?ttl t ~src ~dst
    ~proto:(Packet.Udp { sport; dport })
    ~transport_bytes:(size + udp_header) ~payload ~now
