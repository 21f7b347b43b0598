(** Datagram descriptors of the packet plane. *)

type icmp =
  | Port_unreachable of { orig_id : int; orig_dport : int }
      (** echo of a datagram sent to a closed UDP port *)
  | Time_exceeded of { orig_id : int; at_node : int }
      (** the datagram's TTL ran out at router [at_node] *)

type proto =
  | Udp of { sport : int; dport : int }
  | Icmp of icmp

type t = {
  id : int;
  src : int;      (** node ids in the topology *)
  dst : int;
  proto : proto;
  size : int;     (** transport payload bytes *)
  ttl : int;      (** hops the datagram may still take *)
  sent_at : float;
  payload : string;  (** application bytes; "" when only timing matters *)
}

val pp : Format.formatter -> t -> unit
