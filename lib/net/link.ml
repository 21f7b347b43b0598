(* Directional link channel: store-and-forward serialization at the
   residual rate, FIFO ordering via [busy_until], optional token-bucket
   shaper, background (cross-traffic) load and fluid flow load.

   The residual-rate service model is the fluid approximation described in
   DESIGN.md §2: probe bytes are served at (capacity - background - flows),
   so a probe stream of size S sees delay S/available-bandwidth, matching
   the paper's Formula (3.6). *)

type conf = {
  capacity : float;    (* bytes per second *)
  prop_delay : float;  (* seconds, one way *)
  jitter : float;      (* std-dev of per-packet delay noise, seconds *)
  loss : float;        (* independent per-fragment loss probability *)
}

type t = {
  id : int;
  src : int;
  dst : int;
  conf : conf;
  mutable busy_until : float;
  mutable cross_load : float;  (* bytes/s consumed by background traffic *)
  mutable flow_load : float;   (* bytes/s consumed by fluid flows *)
  mutable shaper : Shaper.t option;
  mutable bytes_carried : int;
  mutable packets_carried : int;
  mutable partitioned : bool;
  mutable packets_dropped : int;
}

let create ~id ~src ~dst conf =
  {
    id;
    src;
    dst;
    conf;
    busy_until = 0.0;
    cross_load = 0.0;
    flow_load = 0.0;
    shaper = None;
    bytes_carried = 0;
    packets_carried = 0;
    partitioned = false;
    packets_dropped = 0;
  }

let set_shaper t shaper = t.shaper <- shaper

let set_partitioned t on = t.partitioned <- on

let partitioned t = t.partitioned

let set_cross_load t load = t.cross_load <- Float.max 0.0 load

(* Physical capacity clamped by the shaper (the fluid view of the token
   bucket, used by the flow plane). *)
let effective_capacity t =
  match t.shaper with
  | None -> t.conf.capacity
  | Some s -> Float.min t.conf.capacity (Shaper.rate s)

(* Bandwidth left for foreground probe packets.  Deliberately *not*
   shaper-clamped: packets physically serialise at link speed and the
   token bucket itself delays them, so clamping here would double-count
   the shaping. *)
let residual_rate t =
  Float.max 1e3 (t.conf.capacity -. t.cross_load -. t.flow_load)

(* Capacity the fluid flow plane may share (background traffic has
   priority, probes are negligible). *)
let capacity_for_flows t = Float.max 0.0 (effective_capacity t -. t.cross_load)

(* Serialize [size] wire bytes arriving at this channel at [now].
   Returns the time the last bit reaches the far end, or [None] when the
   fragment is lost.  FIFO: a fragment cannot start before the previous
   one finished serialising. *)
let transmit t ~rng ~now ~size =
  if t.partitioned then begin
    t.packets_dropped <- t.packets_dropped + 1;
    None
  end
  else
  let now =
    match t.shaper with
    | None -> now
    | Some s -> Shaper.admit s ~now ~size
  in
  let start = Float.max now t.busy_until in
  let finish = start +. (float_of_int size /. residual_rate t) in
  t.busy_until <- finish;
  if t.conf.loss > 0.0 && Smart_util.Prng.float rng ~bound:1.0 < t.conf.loss then
    None
  else begin
    t.bytes_carried <- t.bytes_carried + size;
    t.packets_carried <- t.packets_carried + 1;
    let noise =
      if t.conf.jitter > 0.0 then
        Float.abs (Smart_util.Prng.gaussian rng ~mu:0.0 ~sigma:t.conf.jitter)
      else 0.0
    in
    Some (finish +. t.conf.prop_delay +. noise)
  end
