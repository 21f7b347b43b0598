(** Per-shard status summary — the payload of a [Frame.Digest_db]
    frame, shipped up the federated status plane (DESIGN.md §13).

    A digest carries, for every status column, the number of servers
    with a value and the closed interval those values span.  The root
    wizard consults them
    for query routing: a shard whose intervals rule out every
    conjunctive constraint of a requirement cannot contribute a
    candidate and is skipped.  Ranges only ever over-approximate, so a
    stale digest costs at most a wasted subquery. *)

(** Range summary of one status column over one shard. *)
type stat = {
  present : int;  (** servers carrying a value in this column *)
  lo : float;  (** smallest value observed *)
  hi : float;  (** largest value observed *)
}

(** No observations, with the empty interval encoded as
    [lo = +inf > hi = -inf]. *)
val empty_stat : stat

type t = {
  shard : string;  (** name of the regional wizard that built it *)
  generation : int;  (** shard database generation it summarizes *)
  servers : int;  (** rows of the shard's columnar snapshot *)
  sys : stat array;  (** per server-side variable, [Bytecode.sys_fields] order *)
  net_delay : stat;  (** monitor_network_delay, milliseconds *)
  net_bw : stat;  (** monitor_network_bw, Mbps *)
  sec_level : stat;  (** host_security_level *)
}

(** Serialise for a [Frame.Digest_db] payload in byte order [order]. *)
val encode : Endian.order -> t -> string

(** Inverse of {!encode}; never raises — malformed input comes back as
    [Error]. *)
val decode : Endian.order -> string -> (t, string) result
