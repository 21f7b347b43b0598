(* Datagram descriptors carried by the packet plane.  Sizes are payload
   bytes; per-fragment header overhead is added by the network stack. *)

type icmp =
  | Port_unreachable of { orig_id : int; orig_dport : int }
  | Time_exceeded of { orig_id : int; at_node : int }

type proto =
  | Udp of { sport : int; dport : int }
  | Icmp of icmp

type t = {
  id : int;
  src : int;   (* node ids in the topology *)
  dst : int;
  proto : proto;
  size : int;  (* payload bytes *)
  ttl : int;   (* hops the datagram may still take *)
  sent_at : float;
  payload : string;  (* application bytes; "" when only timing matters *)
}

let pp_proto ppf = function
  | Udp { sport; dport } -> Fmt.pf ppf "udp %d->%d" sport dport
  | Icmp (Port_unreachable { orig_id; orig_dport }) ->
    Fmt.pf ppf "icmp port-unreachable (id=%d dport=%d)" orig_id orig_dport
  | Icmp (Time_exceeded { orig_id; at_node }) ->
    Fmt.pf ppf "icmp time-exceeded (id=%d at node %d)" orig_id at_node

let pp ppf t =
  Fmt.pf ppf "pkt#%d %d->%d %a %dB t=%.6f" t.id t.src t.dst pp_proto t.proto
    t.size t.sent_at
