(* Self-instrumentation registry: counters, gauges and histograms
   backed by the quantile sketch ({!Sketch}), whose memory grows with
   the logarithm of the observation count, so a component can observe
   every request forever.

   The registry is deliberately dependency-free and driver-agnostic:
   the simulation driver reads it synchronously, the realnet daemons
   dump it into a UDP reply, the bench writes it to JSON. *)

(* ------------------------------------------------------------------ *)
(* Instruments                                                          *)
(* ------------------------------------------------------------------ *)

module Counter = struct
  type t = { mutable count : int }

  let make () = { count = 0 }

  let add t n =
    if n < 0 then invalid_arg "Metrics.Counter: negative increment";
    t.count <- t.count + n

  let incr ?(by = 1) t = add t by

  let value t = t.count
end

module Gauge = struct
  type t = { mutable v : float }

  let make () = { v = 0.0 }

  let set t v = t.v <- v

  let add t dv = t.v <- t.v +. dv

  let value t = t.v
end

(* A running sum beside one sketch: count, extremes and every quantile
   are the sketch's, so the whole registry shares one set of quantile
   semantics with the federation's merged views.  The sketch rejects
   non-finite values, so the histogram drops them before either field
   moves. *)
module Histogram = struct
  (* the sum sits in an all-float record, which stores it unboxed, so
     adding to it allocates nothing *)
  type total = { mutable sum : float }

  type t = { total : total; sketch : Sketch.t }

  let observe t x =
    if Float.is_finite x then begin
      t.total.sum <- t.total.sum +. x;
      Sketch.observe t.sketch x
    end

  let count t = Sketch.count t.sketch

  let sum t = t.total.sum

  let quantile t p = Sketch.quantile t.sketch p
end

type histogram_summary = {
  count : int;
  sum : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

let histogram_summary (h : Histogram.t) =
  {
    count = Histogram.count h;
    sum = Histogram.sum h;
    min = Sketch.min_value h.Histogram.sketch;
    max = Sketch.max_value h.Histogram.sketch;
    p50 = Histogram.quantile h 0.5;
    p95 = Histogram.quantile h 0.95;
    p99 = Histogram.quantile h 0.99;
  }

(* ------------------------------------------------------------------ *)
(* Registry                                                             *)
(* ------------------------------------------------------------------ *)

type metric =
  | Counter_m of Counter.t
  | Gauge_m of Gauge.t
  | Histogram_m of Histogram.t

type entry = { help : string; metric : metric }

type t = { table : (string, entry) Hashtbl.t }

let create () = { table = Hashtbl.create 32 }

let kind_name = function
  | Counter_m _ -> "counter"
  | Gauge_m _ -> "gauge"
  | Histogram_m _ -> "histogram"

let register t ?(help = "") name ~make ~extract ~wanted =
  match Hashtbl.find_opt t.table name with
  | Some { metric; _ } ->
    (match extract metric with
    | Some instrument -> instrument
    | None ->
      invalid_arg
        (Printf.sprintf "Metrics: %s already registered as a %s, wanted %s"
           name (kind_name metric) wanted))
  | None ->
    let instrument, metric = make () in
    Hashtbl.replace t.table name { help; metric };
    instrument

let counter t ?help name =
  register t ?help name ~wanted:"counter"
    ~make:(fun () ->
      let c = Counter.make () in
      (c, Counter_m c))
    ~extract:(function Counter_m c -> Some c | Gauge_m _ | Histogram_m _ -> None)

let gauge t ?help name =
  register t ?help name ~wanted:"gauge"
    ~make:(fun () ->
      let g = Gauge.make () in
      (g, Gauge_m g))
    ~extract:(function Gauge_m g -> Some g | Counter_m _ | Histogram_m _ -> None)

(* The sketch PRNG seed derives from the metric name via CRC-32 so it is
   deterministic and registration-order independent (stdlib
   [Hashtbl.hash] is banned by the determinism lint). *)
let sketch_for name = Sketch.create ~rng:(Prng.create ~seed:(Crc32.string name)) ()

let histogram t ?help name =
  register t ?help name ~wanted:"histogram"
    ~make:(fun () ->
      let h = { Histogram.total = { sum = 0.0 }; sketch = sketch_for name } in
      (h, Histogram_m h))
    ~extract:(function Histogram_m h -> Some h | Counter_m _ | Gauge_m _ -> None)

type value =
  | Counter of int
  | Gauge of float
  | Histogram of histogram_summary

type sample = { name : string; help : string; value : value }

let read = function
  | Counter_m c -> Counter (Counter.value c)
  | Gauge_m g -> Gauge (Gauge.value g)
  | Histogram_m h -> Histogram (histogram_summary h)

let snapshot t =
  Hashtbl.fold
    (fun name { help; metric } acc -> { name; help; value = read metric } :: acc)
    t.table []
  |> List.sort (fun a b -> String.compare a.name b.name)

let find t name =
  Option.map (fun { metric; _ } -> read metric) (Hashtbl.find_opt t.table name)

let counter_value t name =
  match find t name with Some (Counter n) -> n | Some _ | None -> 0

let gauge_value t name =
  match find t name with Some (Gauge v) -> v | Some _ | None -> 0.0

(* ------------------------------------------------------------------ *)
(* Rendering                                                            *)
(* ------------------------------------------------------------------ *)

let to_text t =
  let buf = Buffer.create 512 in
  List.iter
    (fun { name; value; _ } ->
      (match value with
      | Counter n -> Buffer.add_string buf (Printf.sprintf "%s counter %d" name n)
      | Gauge v -> Buffer.add_string buf (Printf.sprintf "%s gauge %.6g" name v)
      | Histogram h ->
        Buffer.add_string buf
          (Printf.sprintf
             "%s histogram count=%d sum=%.6g min=%.6g p50=%.6g p95=%.6g \
              p99=%.6g max=%.6g"
             name h.count h.sum h.min h.p50 h.p95 h.p99 h.max));
      Buffer.add_char buf '\n')
    (snapshot t);
  Buffer.contents buf

(* The shared {!Json} helper, so every JSON emitter in the tree escapes
   identically. *)
let json_float = Json.number

let to_json t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{";
  List.iteri
    (fun i { name; value; _ } ->
      if i > 0 then Buffer.add_string buf ",";
      Buffer.add_string buf (Printf.sprintf "\n  \"%s\": " (Json.escape name));
      (match value with
      | Counter n ->
        Buffer.add_string buf
          (Printf.sprintf "{\"type\": \"counter\", \"value\": %d}" n)
      | Gauge v ->
        Buffer.add_string buf
          (Printf.sprintf "{\"type\": \"gauge\", \"value\": %s}" (json_float v))
      | Histogram h ->
        Buffer.add_string buf
          (Printf.sprintf
             "{\"type\": \"histogram\", \"count\": %d, \"sum\": %s, \"min\": \
              %s, \"p50\": %s, \"p95\": %s, \"p99\": %s, \"max\": %s}"
             h.count (json_float h.sum) (json_float h.min) (json_float h.p50)
             (json_float h.p95) (json_float h.p99) (json_float h.max))))
    (snapshot t);
  Buffer.add_string buf "\n}\n";
  Buffer.contents buf
