(** Hop-by-hop path probing à la pipechar (Appendix A): TTL-limited UDP
    probes, per-hop RTTs from ICMP time-exceeded echoes, and cumulative
    bandwidth estimates per hop. *)

type hop = {
  ttl : int;
  node : int option;
  name : string;  (** "name (ip)", or "*" when no reply *)
  rtt : float option;
  bw_estimate : float option;  (** cumulative bytes/second to this hop *)
}

(** Full trace; stops at the destination's port-unreachable or at
    [max_ttl]. *)
val run :
  ?max_ttl:int ->
  ?measure_bandwidth:bool ->
  Smart_net.Netstack.t ->
  src:int ->
  dst:int ->
  unit ->
  hop list

(** Appendix-A-style printout. *)
val print : Smart_net.Netstack.t -> src:int -> dst:int -> hop list -> unit
