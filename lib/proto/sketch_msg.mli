(** Wire codec for a shard's batch of quantile sketches — the
    federation's [Frame.Sketch_db] payload (type code 5).

    A shard periodically ships named sketches (today its wizard's
    private subquery-latency sketch) up the same transmitter uplink
    that carries digests; the root merges same-named sketches across shards into
    deployment-wide quantiles (DESIGN.md §14, OBSERVABILITY.md).

    The encoding round-trips the sketch exactly, including its PRNG
    state, so a decode on the root continues the same deterministic
    stream.  {!decode} never raises: adversarial input comes back as
    [Error _], with allocation bounded before any buffer is trusted. *)

type t = {
  shard : string;  (** reporting shard, [""] for a non-federated node *)
  entries : (string * Smart_util.Sketch.t) list;
      (** metric name -> sketch, in shipping order *)
}

(** Raises [Invalid_argument] when a name exceeds the u16 length fields
    or a sketch exceeds 2{^20} retained items per level. *)
val encode : Endian.order -> t -> string

val decode : Endian.order -> string -> (t, string) result
