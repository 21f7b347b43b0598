(* Unit and property tests for smart_util: PRNG, heap, statistics,
   units, table rendering. *)

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Prng                                                                 *)
(* ------------------------------------------------------------------ *)

(* One full-precision draw: equal streams give bit-equal floats. *)
let draw rng = Smart_util.Prng.float rng ~bound:1.0

let check_same_draw = Alcotest.(check (float 0.0))

let test_prng_deterministic () =
  let a = Smart_util.Prng.create ~seed:42 in
  let b = Smart_util.Prng.create ~seed:42 in
  for _ = 1 to 100 do
    check_same_draw "same stream" (draw a) (draw b)
  done

let test_prng_seed_sensitivity () =
  let a = Smart_util.Prng.create ~seed:1 in
  let b = Smart_util.Prng.create ~seed:2 in
  Alcotest.(check bool)
    "different seeds differ" false
    (Float.equal (draw a) (draw b))

let test_prng_copy () =
  let a = Smart_util.Prng.create ~seed:7 in
  ignore (draw a);
  let b = Smart_util.Prng.copy a in
  check_same_draw "copy continues identically" (draw a) (draw b)

let test_prng_split_independent () =
  let a = Smart_util.Prng.create ~seed:7 in
  let child = Smart_util.Prng.split a in
  Alcotest.(check bool)
    "child differs from parent" false
    (Float.equal (draw child) (draw a))

let test_prng_float_range () =
  let rng = Smart_util.Prng.create ~seed:5 in
  for _ = 1 to 1000 do
    let f = Smart_util.Prng.float rng ~bound:3.5 in
    Alcotest.(check bool) "in [0, 3.5)" true (f >= 0.0 && f < 3.5)
  done

let test_prng_int_range () =
  let rng = Smart_util.Prng.create ~seed:5 in
  let seen = Array.make 10 false in
  for _ = 1 to 2000 do
    let i = Smart_util.Prng.int rng ~bound:10 in
    Alcotest.(check bool) "in [0, 10)" true (i >= 0 && i < 10);
    seen.(i) <- true
  done;
  Alcotest.(check bool) "all values hit" true (Array.for_all Fun.id seen)

let test_prng_gaussian_moments () =
  let rng = Smart_util.Prng.create ~seed:13 in
  let n = 20000 in
  let xs =
    Array.init n (fun _ -> Smart_util.Prng.gaussian rng ~mu:3.0 ~sigma:2.0)
  in
  let mean = Smart_util.Stats.mean xs in
  let sd = Smart_util.Stats.stddev xs in
  Alcotest.(check bool) "mean ~ 3" true (Float.abs (mean -. 3.0) < 0.1);
  Alcotest.(check bool) "sd ~ 2" true (Float.abs (sd -. 2.0) < 0.1)

let test_prng_shuffle_permutation () =
  let rng = Smart_util.Prng.create ~seed:3 in
  let arr = Array.init 50 Fun.id in
  let shuffled = Smart_util.Prng.shuffle rng arr in
  let sorted = Array.copy shuffled in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" arr sorted;
  Alcotest.(check (array int)) "input untouched" (Array.init 50 Fun.id) arr

(* The production generator against the boxed-counter oracle it
   replaced: one script of draws, copies, splits and state round trips
   run on both, every result compared bit for bit. *)
type prng_op =
  | Int of int
  | Float of float
  | Bool
  | Gaussian
  | Range
  | Split
  | Copy
  | Restate

let prng_op =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun bound -> Int bound) (int_range 1 0x3FFFFFFF));
        (2, map (fun bound -> Float bound) (float_range 0.0 1e6));
        (2, return Bool);
        (1, return Gaussian);
        (1, return Range);
        (1, return Split);
        (1, return Copy);
        (1, return Restate);
      ])

let prop_prng_matches_oracle =
  let module P = Smart_util.Prng in
  let module O = Smart_oracle.Prng in
  let same_float a b =
    Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
  in
  let same p o = Int64.equal (P.state p) (O.state o) in
  let rec run p o = function
    | [] -> same p o
    | op :: rest ->
      let ok, p, o =
        match op with
        | Int bound -> (P.int p ~bound = O.int o ~bound, p, o)
        | Float bound ->
          (same_float (P.float p ~bound) (O.float o ~bound), p, o)
        | Bool -> (Bool.equal (P.bool p) (O.bool o), p, o)
        | Gaussian ->
          ( same_float
              (P.gaussian p ~mu:1.5 ~sigma:2.0)
              (O.gaussian o ~mu:1.5 ~sigma:2.0),
            p,
            o )
        | Range ->
          ( same_float
              (P.range p ~lo:(-3.0) ~hi:7.0)
              (O.range o ~lo:(-3.0) ~hi:7.0),
            p,
            o )
        | Split ->
          (* the parent advances, the script goes on with the child *)
          let p' = P.split p and o' = O.split o in
          (same p o && same p' o', p', o')
        | Copy ->
          (* the copy draws the original's next value and leaves it be *)
          let before = P.state p in
          let p' = P.copy p and o' = O.copy o in
          ( P.int p' ~bound:1000 = O.int o' ~bound:1000
            && Int64.equal before (P.state p),
            p,
            o )
        | Restate -> (true, P.of_state (P.state p), O.of_state (O.state o))
      in
      ok && run p o rest
  in
  QCheck.Test.make ~name:"prng streams match the boxed-counter oracle"
    ~count:300
    QCheck.(pair int (list_of_size Gen.(int_range 0 64) (make prng_op)))
    (fun (seed, ops) -> run (P.create ~seed) (O.create ~seed) ops)

(* ------------------------------------------------------------------ *)
(* Heap                                                                 *)
(* ------------------------------------------------------------------ *)

let drain_heap h =
  let rec go acc =
    match Smart_util.Heap.pop h with
    | None -> List.rev acc
    | Some entry -> go (entry :: acc)
  in
  go []

let test_heap_basic () =
  let h = Smart_util.Heap.create () in
  Alcotest.(check bool) "empty" true (Option.is_none (Smart_util.Heap.peek h));
  Smart_util.Heap.push h ~key:2.0 "b";
  Smart_util.Heap.push h ~key:1.0 "a";
  Smart_util.Heap.push h ~key:3.0 "c";
  (match Smart_util.Heap.peek h with
  | Some (k, v) ->
    check_float "peek key" 1.0 k;
    Alcotest.(check string) "peek value" "a" v
  | None -> Alcotest.fail "peek on non-empty");
  let order = List.map snd (drain_heap h) in
  Alcotest.(check (list string)) "peek does not pop; sorted drain"
    [ "a"; "b"; "c" ] order

let test_heap_fifo_ties () =
  let h = Smart_util.Heap.create () in
  List.iter (fun v -> Smart_util.Heap.push h ~key:1.0 v) [ 1; 2; 3; 4; 5 ];
  let order = List.map snd (drain_heap h) in
  Alcotest.(check (list int)) "ties pop FIFO" [ 1; 2; 3; 4; 5 ] order

let prop_heap_sorted =
  QCheck.Test.make ~name:"heap drains keys in sorted order" ~count:200
    QCheck.(list (pair (float_range 0.0 1000.0) small_int))
    (fun items ->
      let h = Smart_util.Heap.create () in
      List.iter (fun (key, v) -> Smart_util.Heap.push h ~key v) items;
      List.sort compare (List.map fst items) = List.map fst (drain_heap h))

let prop_heap_length =
  QCheck.Test.make ~name:"heap length tracks pushes and pops" ~count:200
    QCheck.(list (float_range 0.0 10.0))
    (fun keys ->
      let h = Smart_util.Heap.create () in
      List.iteri (fun i key -> Smart_util.Heap.push h ~key i) keys;
      let n = List.length keys in
      let popped = Option.is_some (Smart_util.Heap.pop h) in
      popped = (n > 0) && List.length (drain_heap h) = max 0 (n - 1))

(* ------------------------------------------------------------------ *)
(* Stats                                                                *)
(* ------------------------------------------------------------------ *)

let test_stats_mean_var () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  check_float "mean" 2.5 (Smart_util.Stats.mean xs);
  check_float "stddev" (Float.sqrt (5.0 /. 3.0)) (Smart_util.Stats.stddev xs);
  check_float "single stddev" 0.0 (Smart_util.Stats.stddev [| 5.0 |])

let test_stats_empty_mean () =
  Alcotest.check_raises "empty mean" (Invalid_argument "Stats.mean: empty")
    (fun () -> ignore (Smart_util.Stats.mean [||]))

let test_stats_percentiles () =
  let xs = [| 4.0; 1.0; 3.0; 2.0; 5.0 |] in
  check_float "median" 3.0 (Smart_util.Stats.median xs);
  check_float "unsorted input" 3.0 (Smart_util.Stats.median [| 5.0; 1.0; 3.0 |]);
  check_float "even count interpolates" 2.5
    (Smart_util.Stats.median [| 4.0; 1.0; 3.0; 2.0 |])

let test_stats_min_max () =
  let lo, hi = Smart_util.Stats.min_max [| 3.0; -1.0; 7.0 |] in
  check_float "min" (-1.0) lo;
  check_float "max" 7.0 hi

(* Each side of an exact two-segment curve is fitted exactly. *)
let test_stats_linear_fit_exact () =
  let xs = Array.init 10 float_of_int in
  let ys = Array.map (fun x -> if x <= 4.0 then (2.5 *. x) +. 1.0 else x) xs in
  let knee = Smart_util.Stats.knee_fit ~xs ~ys in
  let below = knee.Smart_util.Stats.below in
  check_float "slope" 2.5 below.Smart_util.Stats.slope;
  check_float "intercept" 1.0 below.Smart_util.Stats.intercept;
  check_float "r2" 1.0 below.Smart_util.Stats.r2;
  check_float "slope above" 1.0 knee.Smart_util.Stats.above.Smart_util.Stats.slope

let test_stats_knee_fit () =
  (* synthetic Formula (3.6) curve: slope 3 below 1500, slope 1 above *)
  let xs = Array.init 60 (fun i -> float_of_int ((i + 1) * 50)) in
  let ys =
    Array.map
      (fun x -> if x <= 1500.0 then 3.0 *. x else (1.0 *. x) +. 3000.0)
      xs
  in
  let knee = Smart_util.Stats.knee_fit ~xs ~ys in
  Alcotest.(check bool)
    "break near 1500" true
    (Float.abs (knee.Smart_util.Stats.break_x -. 1500.0) <= 100.0);
  Alcotest.(check bool)
    "slopes ordered" true
    (knee.Smart_util.Stats.below.Smart_util.Stats.slope
    > knee.Smart_util.Stats.above.Smart_util.Stats.slope)

let prop_percentile_bounds =
  QCheck.Test.make ~name:"percentile stays within min/max" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 50) (float_range (-100.) 100.))
    (fun xs ->
      let arr = Array.of_list xs in
      let v = Smart_util.Stats.median arr in
      let lo, hi = Smart_util.Stats.min_max arr in
      v >= lo -. 1e-9 && v <= hi +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Units                                                                *)
(* ------------------------------------------------------------------ *)

let test_units_roundtrip () =
  check_float "mbps" 95.0
    (Smart_util.Units.bytes_per_sec_to_mbps
       (Smart_util.Units.mbps_to_bytes_per_sec 95.0));
  check_float "100 Mbps in B/s" 12.5e6
    (Smart_util.Units.mbps_to_bytes_per_sec 100.0);
  check_float "KB/s" 1.0 (Smart_util.Units.bytes_per_sec_to_kBps 1024.0);
  check_float "ms" 1.5 (Smart_util.Units.s_to_ms 0.0015)

(* ------------------------------------------------------------------ *)
(* Tabular                                                              *)
(* ------------------------------------------------------------------ *)

(* What [Tabular.print] writes to stdout, less its trailing newlines. *)
let printed t =
  let path = Filename.temp_file "tabular" ".txt" in
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  Smart_util.Tabular.print t;
  flush stdout;
  Unix.dup2 saved Unix.stdout;
  Unix.close saved;
  let text = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  Alcotest.(check bool) "blank line after the table" true
    (String.ends_with ~suffix:"\n\n" text);
  String.sub text 0 (String.length text - 2)

let test_tabular_render () =
  let t = Smart_util.Tabular.create ~title:"t" ~header:[ "a"; "bb" ] in
  Smart_util.Tabular.add_row t [ "xxx"; "y" ];
  Smart_util.Tabular.add_row t [ "z"; "wwww" ];
  let rendered = printed t in
  let lines = String.split_on_char '\n' rendered in
  Alcotest.(check int) "title + header + rule + 2 rows" 5 (List.length lines);
  (* rows render in insertion order *)
  (match lines with
  | [ _; _; _; row1; row2 ] ->
    Alcotest.(check bool) "first row first" true
      (String.length row1 >= 3 && String.sub row1 0 3 = "xxx");
    Alcotest.(check bool) "second row second" true
      (String.length row2 >= 1 && row2.[0] = 'z')
  | _ -> Alcotest.fail "unexpected line count");
  (* aligned columns: header 'bb' starts at same column as 'y' and 'wwww' *)
  Alcotest.(check bool) "no trailing spaces" true
    (List.for_all
       (fun l -> l = "" || l.[String.length l - 1] <> ' ')
       lines)

let test_stats_knee_needs_points () =
  Alcotest.(check bool) "too few points rejected" true
    (try
       ignore
         (Smart_util.Stats.knee_fit ~xs:[| 1.0; 2.0; 3.0 |]
            ~ys:[| 1.0; 2.0; 3.0 |]);
       false
     with Invalid_argument _ -> true)

let test_stats_linear_fit_degenerate () =
  Alcotest.(check bool) "constant xs rejected" true
    (try
       ignore
         (Smart_util.Stats.knee_fit ~xs:(Array.make 8 2.0)
            ~ys:(Array.init 8 float_of_int));
       false
     with Invalid_argument _ -> true)

let test_tabular_extra_cells_dropped () =
  let t = Smart_util.Tabular.create ~title:"t" ~header:[ "one" ] in
  Smart_util.Tabular.add_row t [ "a"; "overflow"; "more" ];
  let rendered = printed t in
  Alcotest.(check bool) "cells beyond header dropped" false
    (let re = "overflow" in
     let n = String.length rendered and m = String.length re in
     let rec search i =
       i + m <= n && (String.sub rendered i m = re || search (i + 1))
     in
     search 0)

(* ------------------------------------------------------------------ *)
(* Lru                                                                  *)
(* ------------------------------------------------------------------ *)

let test_lru_basics () =
  let l = Smart_util.Lru.create ~capacity:2 in
  Smart_util.Lru.add l "a" 1;
  Smart_util.Lru.add l "b" 2;
  Alcotest.(check (option int)) "hit a" (Some 1) (Smart_util.Lru.find l "a");
  Alcotest.(check (option int)) "miss c" None (Smart_util.Lru.find l "c");
  (* "a" was just used, so inserting "c" evicts "b" *)
  Smart_util.Lru.add l "c" 3;
  Alcotest.(check (option int)) "b evicted" None (Smart_util.Lru.find l "b");
  Alcotest.(check (option int)) "a survived" (Some 1) (Smart_util.Lru.find l "a");
  Alcotest.(check (option int)) "c present" (Some 3) (Smart_util.Lru.find l "c")

let test_lru_replace () =
  let l = Smart_util.Lru.create ~capacity:3 in
  Smart_util.Lru.add l "k" 1;
  Smart_util.Lru.add l "k" 2;
  Alcotest.(check (option int)) "replaced value" (Some 2)
    (Smart_util.Lru.find l "k");
  (* one entry, not two: two more keys fit without evicting "k" *)
  Smart_util.Lru.add l "a" 3;
  Smart_util.Lru.add l "b" 4;
  Alcotest.(check (option int)) "replace keeps one entry" (Some 2)
    (Smart_util.Lru.find l "k")

let test_lru_zero_capacity () =
  let l = Smart_util.Lru.create ~capacity:0 in
  Smart_util.Lru.add l "a" 1;
  Alcotest.(check (option int)) "always misses" None (Smart_util.Lru.find l "a")

let test_lru_eviction_order () =
  let l = Smart_util.Lru.create ~capacity:3 in
  List.iter (fun (k, v) -> Smart_util.Lru.add l k v)
    [ ("a", 1); ("b", 2); ("c", 3) ];
  (* touch in reverse so "a" is most recent, then overflow twice *)
  ignore (Smart_util.Lru.find l "b");
  ignore (Smart_util.Lru.find l "a");
  Smart_util.Lru.add l "d" 4;
  Smart_util.Lru.add l "e" 5;
  let kept k = Option.is_some (Smart_util.Lru.find l k) in
  Alcotest.(check bool) "c evicted first" false (kept "c");
  Alcotest.(check bool) "b evicted second" false (kept "b");
  Alcotest.(check bool) "a kept" true (kept "a");
  Alcotest.(check bool) "d kept" true (kept "d");
  Alcotest.(check bool) "e kept" true (kept "e")

(* ------------------------------------------------------------------ *)
(* Metrics                                                              *)
(* ------------------------------------------------------------------ *)

module M = Smart_util.Metrics

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let test_metrics_counter_gauge () =
  let r = M.create () in
  let c = M.counter r ~help:"events" "x.events_total" in
  M.Counter.incr c;
  M.Counter.incr c ~by:4;
  Alcotest.(check int) "counter value" 5 (M.Counter.value c);
  Alcotest.(check int) "counter_value by name" 5
    (M.counter_value r "x.events_total");
  Alcotest.(check int) "absent counter reads 0" 0 (M.counter_value r "nope");
  let g = M.gauge r "x.depth" in
  M.Gauge.set g 3.0;
  M.Gauge.add g (-1.0);
  check_float "gauge_value by name" 2.0 (M.gauge_value r "x.depth")

let test_metrics_get_or_create () =
  let r = M.create () in
  let a = M.counter r "shared_total" in
  let b = M.counter r "shared_total" in
  M.Counter.incr a;
  M.Counter.incr b;
  (* two registrations, one instrument: increments aggregate *)
  Alcotest.(check int) "same underlying counter" 2 (M.Counter.value a);
  Alcotest.(check bool) "kind clash rejected" true
    (try
       ignore (M.gauge r "shared_total");
       false
     with Invalid_argument _ -> true)

(* Nearest rank on the sorted sample: the histogram's quantile
   semantics, exact while the sketch has not compacted (n <= 255). *)
let nearest_rank sorted p =
  let n = Array.length sorted in
  sorted.(max 0 (int_of_float (Float.ceil (p *. float_of_int n)) - 1))

let histogram_values_arb =
  QCheck.(
    make
      ~print:Print.(list float)
      ~shrink:Shrink.list
      Gen.(
        list_size (int_range 1 255)
          (oneof
             [ float_range (-1e3) 1e3; map float_of_int (int_range (-3) 3) ])))

let prop_histogram_exact_nearest_rank =
  QCheck.Test.make
    ~name:"histogram is the exact nearest rank up to 255 values" ~count:300
    histogram_values_arb
    (fun values ->
      QCheck.assume (values <> []);
      let h = M.histogram (M.create ()) "lat" in
      List.iter (M.Histogram.observe h) values;
      let sorted = Array.of_list values in
      Array.sort Float.compare sorted;
      let n = Array.length sorted in
      let sum = List.fold_left ( +. ) 0.0 values in
      let s = M.histogram_summary h in
      s.M.count = n
      && Float.equal s.M.sum sum
      && Float.equal s.M.min sorted.(0)
      && Float.equal s.M.max sorted.(n - 1)
      && Float.equal s.M.p50 (nearest_rank sorted 0.5)
      && Float.equal s.M.p95 (nearest_rank sorted 0.95)
      && Float.equal s.M.p99 (nearest_rank sorted 0.99))

let test_metrics_histogram_non_finite () =
  let h = M.histogram (M.create ()) "lat" in
  let s = M.histogram_summary h in
  Alcotest.(check bool) "empty summary min/max/quantiles are nan" true
    (Float.is_nan s.M.min && Float.is_nan s.M.max && Float.is_nan s.M.p50
    && Float.is_nan s.M.p99);
  List.iter (M.Histogram.observe h) [ 4.0; 1.0; 3.0; 2.0 ];
  let before = M.histogram_summary h in
  List.iter (M.Histogram.observe h)
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  let after = M.histogram_summary h in
  Alcotest.(check int) "count unchanged" 4 after.M.count;
  check_float "sum unchanged" 10.0 after.M.sum;
  Alcotest.(check bool) "summary unchanged" true (before = after)

let test_metrics_histogram_permutation () =
  let r = M.create () in
  let h = M.histogram r "lat" in
  (* a deterministic non-monotone pass over 1..1000, past the sketch's
     first compaction: every quantile lands near its nearest rank *)
  let n = 1000 in
  for i = 0 to n - 1 do
    M.Histogram.observe h (float_of_int (((i * 617) mod n) + 1))
  done;
  let s = M.histogram_summary h in
  Alcotest.(check int) "count" n s.M.count;
  check_float "min" 1.0 s.M.min;
  check_float "max" (float_of_int n) s.M.max;
  let within name expected tolerance got =
    Alcotest.(check bool)
      (Printf.sprintf "%s: |%g - %g| <= %g" name got expected tolerance)
      true
      (Float.abs (got -. expected) <= tolerance)
  in
  within "p50" 500.0 25.0 s.M.p50;
  within "p95" 950.0 25.0 s.M.p95;
  within "p99" 990.0 25.0 s.M.p99

let test_metrics_snapshot_and_render () =
  let r = M.create () in
  M.Counter.incr (M.counter r ~help:"h" "b.count_total") ~by:3;
  M.Gauge.set (M.gauge r "a.depth") 1.5;
  M.Histogram.observe (M.histogram r "c.lat") 2.0;
  (match (M.find r "a.depth", M.find r "b.count_total", M.find r "c.lat") with
  | Some (M.Gauge g), Some (M.Counter n), Some (M.Histogram hs) ->
    check_float "gauge sample" 1.5 g;
    Alcotest.(check int) "counter sample" 3 n;
    Alcotest.(check int) "histogram sample" 1 hs.M.count
  | _ -> Alcotest.fail "sample kinds wrong");
  let text = M.to_text r in
  (* one line per metric, sorted by name *)
  Alcotest.(check (list string)) "lines sorted by name"
    [ "a.depth"; "b.count_total"; "c.lat" ]
    (List.filter_map
       (fun line ->
         match String.split_on_char ' ' line with
         | name :: _ :: _ -> Some name
         | _ -> None)
       (String.split_on_char '\n' text));
  Alcotest.(check bool) "text has counter line" true
    (contains ~affix:"b.count_total counter 3" text);
  let json = M.to_json r in
  Alcotest.(check bool) "json mentions every metric" true
    (List.for_all
       (fun name -> contains ~affix:(Printf.sprintf "%S" name) json)
       [ "a.depth"; "b.count_total"; "c.lat" ])

(* Adversarial instrument names: the JSON dump must stay parseable and
   the text dump must keep one instrument per line regardless of what
   the caller names things. *)
let test_metrics_json_escape () =
  let e = Smart_util.Json.escape in
  Alcotest.(check string) "plain untouched" "a.depth" (e "a.depth");
  Alcotest.(check string) "quote" "say \\\"hi\\\"" (e "say \"hi\"");
  Alcotest.(check string) "backslash" "a\\\\b" (e "a\\b");
  Alcotest.(check string) "newline" "a\\nb" (e "a\nb");
  Alcotest.(check string) "tab short escape" "a\\tb" (e "a\tb");
  Alcotest.(check string) "carriage return short escape" "a\\rb" (e "a\rb");
  Alcotest.(check string) "nul byte" "\\u0000" (e "\x00");
  Alcotest.(check string) "last control" "\\u001f" (e "\x1f");
  Alcotest.(check string) "first printable kept" " " (e " ");
  (* multi-byte UTF-8 passes through byte-for-byte *)
  Alcotest.(check string) "non-ascii untouched" "caf\xc3\xa9" (e "caf\xc3\xa9");
  Alcotest.(check string) "mixed"
    "\\\"\\\\\\n\\u0001x" (e "\"\\\n\x01x")

let test_metrics_adversarial_names () =
  let r = M.create () in
  let hostile = "evil\"name\\with\nnasties" in
  M.Counter.incr (M.counter r hostile) ~by:1;
  M.Gauge.set (M.gauge r "quote\"gauge") 2.0;
  let json = M.to_json r in
  Alcotest.(check bool) "json escapes the counter name" true
    (contains ~affix:"evil\\\"name\\\\with\\nnasties" json);
  Alcotest.(check bool) "json escapes the gauge name" true
    (contains ~affix:"quote\\\"gauge" json);
  Alcotest.(check bool) "no raw quote-in-string survives" false
    (contains ~affix:"evil\"name" json);
  (* the text dump is line-oriented: names render raw, values intact *)
  let text = M.to_text r in
  Alcotest.(check bool) "text keeps the raw name" true
    (contains ~affix:"counter 1" text);
  Alcotest.(check bool) "gauge rendered" true (contains ~affix:"2" text)

(* ------------------------------------------------------------------ *)
(* Tracelog                                                            *)
(* ------------------------------------------------------------------ *)

module T = Smart_util.Tracelog

(* A hand-cranked clock so spans get pinned, distinct timestamps. *)
let ticking_clock () =
  let now = ref 0.0 in
  ((fun () -> now := !now +. 1.0; !now), now)

let test_tracelog_span_tree () =
  let clock, _ = ticking_clock () in
  let t = T.create ~clock () in
  let parent = T.start t "wizard.request" in
  let child = T.start t ~parent:(T.ctx_of parent) "wizard.select" in
  T.finish t child;
  T.finish t parent;
  match T.entries t with
  | [ p; c ] ->
    Alcotest.(check string) "parent name" "wizard.request" p.T.name;
    Alcotest.(check string) "child name" "wizard.select" c.T.name;
    Alcotest.(check bool) "root span opens its own trace" true
      (p.T.trace_id = p.T.span_id);
    Alcotest.(check int) "root span has no parent" 0 p.T.parent_id;
    Alcotest.(check int) "child joins the trace" p.T.trace_id c.T.trace_id;
    Alcotest.(check int) "child parented on the span" p.T.span_id c.T.parent_id;
    Alcotest.(check bool) "ids distinct" true (p.T.span_id <> c.T.span_id);
    Alcotest.(check (float 1e-9)) "parent start" 1.0 p.T.start_time;
    Alcotest.(check (float 1e-9)) "child start" 2.0 c.T.start_time;
    Alcotest.(check (float 1e-9)) "child closed first" 1.0 c.T.duration;
    Alcotest.(check (float 1e-9)) "parent spans the child" 3.0 p.T.duration
  | other -> Alcotest.failf "expected 2 entries, got %d" (List.length other)

let test_tracelog_disabled () =
  Alcotest.(check bool) "shared recorder off" false (T.enabled T.disabled);
  let span = T.start T.disabled "never" in
  T.finish T.disabled span;
  T.instant T.disabled "nor this";
  Alcotest.(check bool) "no span ctx" true (T.is_root (T.ctx_of span));
  Alcotest.(check int) "nothing recorded" 0 (T.total_recorded T.disabled);
  Alcotest.(check int) "no entries" 0 (List.length (T.entries T.disabled))

let test_tracelog_ring_bounded () =
  let clock, _ = ticking_clock () in
  let t = T.create ~capacity:4 ~clock () in
  for i = 1 to 10 do
    T.instant t (Printf.sprintf "event%d" i)
  done;
  let names = List.map (fun (e : T.entry) -> e.T.name) (T.entries t) in
  Alcotest.(check (list string)) "oldest first, newest kept"
    [ "event7"; "event8"; "event9"; "event10" ] names;
  Alcotest.(check int) "total counts drops" 10 (T.total_recorded t);
  Alcotest.(check bool) "text dump counts the dropped" true
    (contains ~affix:"(... 6 earlier entries dropped)" (T.to_text t))

let test_tracelog_chrome_json () =
  let clock, _ = ticking_clock () in
  let t = T.create ~clock () in
  let span = T.start t "probe.tick" in
  T.finish t span;
  let open_span = T.start t "probe.build \"quoted\"" in
  ignore open_span;
  let json =
    T.to_chrome_json ~instants:[ (0.5, "net", "packet \"x\" sent") ] t
  in
  Alcotest.(check bool) "complete event" true (contains ~affix:"\"ph\":\"X\"" json);
  Alcotest.(check bool) "instant event" true (contains ~affix:"\"ph\":\"i\"" json);
  Alcotest.(check bool) "process metadata" true (contains ~affix:"\"ph\":\"M\"" json);
  Alcotest.(check bool) "component from dot-prefix" true
    (contains ~affix:"probe" json);
  Alcotest.(check bool) "hostile span name escaped" true
    (contains ~affix:"\\\"quoted\\\"" json);
  Alcotest.(check bool) "hostile instant escaped" true
    (contains ~affix:"packet \\\"x\\\" sent" json);
  let again =
    T.to_chrome_json ~instants:[ (0.5, "net", "packet \"x\" sent") ] t
  in
  Alcotest.(check string) "export deterministic" json again

let test_tracelog_render_tree () =
  let clock, _ = ticking_clock () in
  let t = T.create ~clock () in
  let req = T.start t "client.request" in
  let wiz = T.start t ~parent:(T.ctx_of req) "wizard.request" in
  let sel = T.start t ~parent:(T.ctx_of wiz) "wizard.select" in
  T.finish t sel;
  T.finish t wiz;
  T.finish t req;
  let other = T.start t "probe.tick" in
  T.finish t other;
  let tree = T.render_tree t ~trace_id:(T.ctx_of req).T.trace_id in
  Alcotest.(check bool) "root present" true (contains ~affix:"client.request" tree);
  Alcotest.(check bool) "grandchild present" true
    (contains ~affix:"wizard.select" tree);
  Alcotest.(check bool) "foreign trace excluded" false
    (contains ~affix:"probe.tick" tree)

(* ------------------------------------------------------------------ *)
(* Backoff                                                              *)
(* ------------------------------------------------------------------ *)

let test_backoff_nominal_schedule () =
  let p =
    Smart_util.Backoff.policy ~base:0.2 ~multiplier:2.0 ~max_delay:1.0
      ~jitter:0.0 ()
  in
  check_float "attempt 0" 0.2 (Smart_util.Backoff.nominal p ~attempt:0);
  check_float "attempt 1" 0.4 (Smart_util.Backoff.nominal p ~attempt:1);
  check_float "attempt 2" 0.8 (Smart_util.Backoff.nominal p ~attempt:2);
  check_float "saturates" 1.0 (Smart_util.Backoff.nominal p ~attempt:3);
  check_float "stays saturated" 1.0 (Smart_util.Backoff.nominal p ~attempt:50);
  let b = Smart_util.Backoff.create p in
  (* no rng: next follows the nominal schedule exactly *)
  check_float "next 0" 0.2 (Smart_util.Backoff.next b);
  check_float "next 1" 0.4 (Smart_util.Backoff.next b);
  check_float "next 2" 0.8 (Smart_util.Backoff.next b);
  Smart_util.Backoff.reset b;
  check_float "schedule restarts" 0.2 (Smart_util.Backoff.next b)

let test_backoff_jitter_bounded_deterministic () =
  let p = Smart_util.Backoff.policy ~jitter:0.5 () in
  let delays rng_seed =
    let b =
      Smart_util.Backoff.create
        ~rng:(Smart_util.Prng.create ~seed:rng_seed)
        p
    in
    List.init 8 (fun _ -> Smart_util.Backoff.next b)
  in
  let one = delays 11 in
  (* jitter only shortens: nominal is the worst case, and at most half
     of it is randomised away here *)
  List.iteri
    (fun i d ->
      let n = Smart_util.Backoff.nominal p ~attempt:i in
      Alcotest.(check bool) "under nominal" true (d <= n);
      Alcotest.(check bool) "over jitter floor" true (d >= n *. 0.5))
    one;
  (* same seed, same schedule — byte-identical retries across runs *)
  List.iter2 (check_float "same seed, same delays") one (delays 11)

let test_backoff_rejects_nonsense () =
  let invalid f = Alcotest.(check bool) "rejected" true
      (try ignore (f ()); false with Invalid_argument _ -> true)
  in
  invalid (fun () -> Smart_util.Backoff.policy ~base:0.0 ());
  invalid (fun () -> Smart_util.Backoff.policy ~multiplier:0.9 ());
  invalid (fun () -> Smart_util.Backoff.policy ~max_delay:0.0 ());
  invalid (fun () -> Smart_util.Backoff.policy ~jitter:1.0 ());
  invalid (fun () -> Smart_util.Backoff.policy ~jitter:(-0.1) ())

(* ------------------------------------------------------------------ *)
(* Crc32                                                                *)
(* ------------------------------------------------------------------ *)

let test_crc32_known_vectors () =
  (* IEEE 802.3 / zlib polynomial reference values *)
  Alcotest.(check int) "empty" 0 (Smart_util.Crc32.string "");
  Alcotest.(check int) "check vector" 0xCBF43926
    (Smart_util.Crc32.string "123456789");
  Alcotest.(check int) "'a'" 0xE8B7BE43 (Smart_util.Crc32.string "a")

let test_crc32_streaming_and_substring () =
  let s = "the quick brown fox" in
  let whole = Smart_util.Crc32.string s in
  Alcotest.(check int) "substring of whole" whole
    (Smart_util.Crc32.substring s ~pos:0 ~len:(String.length s));
  Alcotest.(check int) "substring of a slice" (Smart_util.Crc32.string "quick")
    (Smart_util.Crc32.substring s ~pos:4 ~len:5);
  Alcotest.(check bool) "out of bounds rejected" true
    (try
       ignore (Smart_util.Crc32.substring s ~pos:0 ~len:(String.length s + 1));
       false
     with Invalid_argument _ -> true)

let prop_crc32_detects_byte_flips =
  QCheck.Test.make ~name:"crc32 detects any single byte flip" ~count:300
    QCheck.(
      triple
        (string_gen_of_size Gen.(int_range 1 64) Gen.char)
        (int_bound 1000) (int_range 1 255))
    (fun (s, pos, delta) ->
      let pos = pos mod String.length s in
      let b = Bytes.of_string s in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor delta));
      Smart_util.Crc32.string s <> Smart_util.Crc32.string (Bytes.to_string b))

(* ------------------------------------------------------------------ *)
(* Sketch: mergeable quantile sketches                                  *)
(* ------------------------------------------------------------------ *)

module Sk = Smart_util.Sketch

let sketch_of ?(k = 16) ~seed values =
  let s = Sk.create ~k ~rng:(Smart_util.Prng.create ~seed) () in
  List.iter (Sk.observe s) values;
  s

(* The documented bound, checked against the exact sorted stream: the
   sketch's answer for [p] is an observed value whose true rank lies
   within [err_weight] of the nearest-rank target.  Ranks are counted
   directly (not read back through an interpolated percentile, whose
   rank arithmetic is epsilon-off integral ranks). *)
let sketch_rank_ok values s p =
  let arr = Array.of_list values in
  Array.sort Float.compare arr;
  let n = Array.length arr in
  if n = 0 then true
  else begin
    let v = Sk.quantile s p in
    let err = Sk.err_weight s in
    let target =
      let r = int_of_float (Float.ceil (p *. float_of_int n)) in
      if r < 1 then 1 else if r > n then n else r
    in
    let below = ref 0 and upto = ref 0 in
    Array.iter
      (fun x ->
        if Float.compare x v < 0 then incr below;
        if Float.compare x v <= 0 then incr upto)
      arr;
    (* [v] is observed, and its rank interval overlaps target +- err *)
    List.exists (fun x -> Float.compare x v = 0) values
    && !below + 1 <= target + err
    && target - err <= !upto
  end

let test_sketch_exact_when_small () =
  (* default k = 256: a few hundred observations never compact, so the
     sketch is the exact nearest-rank statistic *)
  let values = List.init 100 (fun i -> float_of_int (100 - i)) in
  let s = Sk.create ~rng:(Smart_util.Prng.create ~seed:3) () in
  List.iter (Sk.observe s) values;
  Alcotest.(check int) "count" 100 (Sk.count s);
  Alcotest.(check int) "no compaction, no error" 0 (Sk.err_weight s);
  check_float "min" 1.0 (Sk.min_value s);
  check_float "max" 100.0 (Sk.max_value s);
  check_float "p0 is the minimum" 1.0 (Sk.quantile s 0.0);
  check_float "p50 nearest rank" 50.0 (Sk.quantile s 0.5);
  check_float "p99 nearest rank" 99.0 (Sk.quantile s 0.99);
  check_float "p100 is the maximum" 100.0 (Sk.quantile s 1.0);
  let lo, hi = Smart_util.Stats.min_max (Array.of_list values) in
  check_float "agrees with Stats.min_max at p0" lo (Sk.quantile s 0.0);
  check_float "agrees with Stats.min_max at p100" hi (Sk.quantile s 1.0)

let test_sketch_compaction_bounds () =
  let n = 5000 in
  let values = List.init n (fun i -> float_of_int ((i * 37) mod n)) in
  let s = sketch_of ~k:32 ~seed:11 values in
  Alcotest.(check int) "count survives compaction" n (Sk.count s);
  Alcotest.(check bool) "compaction happened" true (Sk.err_weight s > 0);
  let retained = List.fold_left (fun a l -> a + Array.length l) 0 (Sk.levels s) in
  Alcotest.(check bool) "memory stays bounded" true
    (retained <= 32 * List.length (Sk.levels s) && retained < n / 4);
  Alcotest.(check bool) "bound is sub-half" true (2 * Sk.err_weight s < Sk.count s);
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "p%.0f within rank bound" (100.0 *. p))
        true
        (sketch_rank_ok values s p))
    [ 0.05; 0.25; 0.5; 0.75; 0.95; 0.99 ]

let test_sketch_rejects () =
  let expect_invalid name f =
    Alcotest.(check bool) name true
      (try
         ignore (f ());
         false
       with Invalid_argument _ -> true)
  in
  expect_invalid "odd k" (fun () -> Sk.create ~k:9 ());
  expect_invalid "tiny k" (fun () -> Sk.create ~k:4 ());
  let s = Sk.create () in
  expect_invalid "nan observation" (fun () -> Sk.observe s Float.nan);
  expect_invalid "infinite observation" (fun () ->
      Sk.observe s Float.infinity);
  expect_invalid "quantile above 1" (fun () -> Sk.quantile s 1.5);
  Alcotest.(check bool) "empty quantile is nan" true
    (Float.is_nan (Sk.quantile s 0.5));
  Alcotest.(check bool) "empty min is nan" true (Float.is_nan (Sk.min_value s))

let test_sketch_of_parts () =
  let s = sketch_of ~k:8 ~seed:5 (List.init 300 (fun i -> float_of_int i)) in
  (match
     Sk.of_parts ~k:(Sk.k s) ~err_weight:(Sk.err_weight s)
       ~min_value:(Sk.min_value s) ~max_value:(Sk.max_value s)
       ~rng_state:(Sk.rng_state s) (Sk.levels s)
   with
  | Ok s' ->
    Alcotest.(check bool) "structural rebuild equal" true (Smart_oracle.Sketch_state.equal s s');
    Alcotest.(check int64) "prng state carried" (Sk.rng_state s)
      (Sk.rng_state s')
  | Error e -> Alcotest.failf "rebuild rejected: %s" e);
  let bad name parts = Alcotest.(check bool) name true (Result.is_error parts) in
  bad "odd k rejected"
    (Sk.of_parts ~k:7 ~err_weight:0 ~min_value:0.0 ~max_value:1.0
       ~rng_state:0L [ [| 0.5 |] ]);
  bad "negative error rejected"
    (Sk.of_parts ~k:8 ~err_weight:(-1) ~min_value:0.0 ~max_value:1.0
       ~rng_state:0L [ [| 0.5 |] ]);
  bad "too many levels rejected"
    (Sk.of_parts ~k:8 ~err_weight:0 ~min_value:0.0 ~max_value:1.0
       ~rng_state:0L
       (List.init (Sk.max_levels + 1) (fun _ -> [| 0.5 |])));
  bad "non-finite item rejected"
    (Sk.of_parts ~k:8 ~err_weight:0 ~min_value:0.0 ~max_value:1.0
       ~rng_state:0L [ [| Float.nan |] ]);
  bad "item outside min/max rejected"
    (Sk.of_parts ~k:8 ~err_weight:0 ~min_value:0.0 ~max_value:1.0
       ~rng_state:0L [ [| 2.0 |] ])

let sketch_values_arb =
  QCheck.(list_of_size Gen.(int_range 0 300) (float_range (-1e3) 1e3))

let prop_sketch_merge_commutes =
  QCheck.Test.make ~name:"sketch merge commutes (observable state)"
    ~count:200
    QCheck.(pair sketch_values_arb sketch_values_arb)
    (fun (xs, ys) ->
      let a = sketch_of ~seed:1 xs and b = sketch_of ~seed:2 ys in
      Smart_oracle.Sketch_state.equal (Sk.merge a b) (Sk.merge b a))

let prop_sketch_merge_associates =
  QCheck.Test.make ~name:"sketch merge associates (observable state)"
    ~count:200
    QCheck.(triple sketch_values_arb sketch_values_arb sketch_values_arb)
    (fun (xs, ys, zs) ->
      let a = sketch_of ~seed:1 xs
      and b = sketch_of ~seed:2 ys
      and c = sketch_of ~seed:3 zs in
      Smart_oracle.Sketch_state.equal (Sk.merge (Sk.merge a b) c) (Sk.merge a (Sk.merge b c)))

let prop_sketch_merge_identity =
  QCheck.Test.make ~name:"fresh sketch is a merge identity" ~count:200
    sketch_values_arb
    (fun xs ->
      let a = sketch_of ~seed:4 xs in
      let e () = Sk.create ~k:16 ~rng:(Smart_util.Prng.create ~seed:9) () in
      Smart_oracle.Sketch_state.equal (Sk.merge a (e ())) a && Smart_oracle.Sketch_state.equal (Sk.merge (e ()) a) a)

let prop_sketch_merge_matches_union =
  QCheck.Test.make
    ~name:"merged quantiles track the union within the rank bound"
    ~count:200
    QCheck.(pair sketch_values_arb sketch_values_arb)
    (fun (xs, ys) ->
      let merged = Sk.merge (sketch_of ~seed:5 xs) (sketch_of ~seed:6 ys) in
      let union = xs @ ys in
      List.for_all (sketch_rank_ok union merged) [ 0.1; 0.5; 0.9; 0.99 ])

let prop_sketch_tracks_exact_percentile =
  QCheck.Test.make
    ~name:"compacted sketch stays within rank bound of Stats.percentile"
    ~count:1000
    QCheck.(list_of_size Gen.(int_range 1 1000) (float_range (-1e6) 1e6))
    (fun values ->
      let s = sketch_of ~k:8 ~seed:8 values in
      List.for_all (sketch_rank_ok values s) [ 0.1; 0.5; 0.9; 0.99 ])

(* Merge and compaction sort with the sketch's own heap sort; pin it,
   through a merge, to the exact permutation [Array.sort Float.compare]
   gives.  Drawing mostly from a small pool makes duplicates common, and
   -0.0 beside 0.0 (equal under Float.compare, distinct in bits) shows
   where each one lands. *)
let prop_sketch_sort_matches_stdlib =
  let value =
    QCheck.Gen.(
      frequency
        [
          (3, oneofa [| -0.0; 0.0; 1.0; -1.0; 0.5 |]);
          (1, float_range (-4.0) 4.0);
        ])
  in
  let print a =
    String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%h") a))
  in
  QCheck.Test.make
    ~name:"sketch sort_prefix permutes exactly like Array.sort Float.compare"
    ~count:500
    (QCheck.make ~print QCheck.Gen.(array_size (int_range 1 300) value))
    (fun a ->
      let bits x = Array.map Int64.bits_of_float x in
      let expected = Array.copy a in
      Array.sort Float.compare expected;
      let lo, hi = Smart_util.Stats.min_max a in
      match
        Sk.of_parts ~k:8 ~err_weight:0 ~min_value:lo ~max_value:hi
          ~rng_state:0L [ a ]
      with
      | Error _ -> false
      | Ok s -> (
        match Sk.levels (Sk.merge s (Sk.create ~k:8 ())) with
        | [ got ] -> bits got = bits expected
        | _ -> false))

let qsuite = List.map QCheck_alcotest.to_alcotest
    [ prop_prng_matches_oracle; prop_heap_sorted; prop_heap_length; prop_percentile_bounds;
      prop_crc32_detects_byte_flips;
      prop_sketch_merge_commutes; prop_sketch_merge_associates;
      prop_sketch_merge_identity; prop_sketch_merge_matches_union;
      prop_sketch_tracks_exact_percentile; prop_sketch_sort_matches_stdlib;
      prop_histogram_exact_nearest_rank ]

let () =
  Alcotest.run "smart_util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_prng_copy;
          Alcotest.test_case "split independence" `Quick
            test_prng_split_independent;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "int range" `Quick test_prng_int_range;
          Alcotest.test_case "gaussian moments" `Quick test_prng_gaussian_moments;
          Alcotest.test_case "shuffle permutation" `Quick
            test_prng_shuffle_permutation;
        ] );
      ( "backoff",
        [
          Alcotest.test_case "nominal schedule" `Quick
            test_backoff_nominal_schedule;
          Alcotest.test_case "jitter bounded and deterministic" `Quick
            test_backoff_jitter_bounded_deterministic;
          Alcotest.test_case "rejects nonsense" `Quick
            test_backoff_rejects_nonsense;
        ] );
      ( "crc32",
        [
          Alcotest.test_case "known vectors" `Quick test_crc32_known_vectors;
          Alcotest.test_case "streaming and substring" `Quick
            test_crc32_streaming_and_substring;
        ] );
      ( "heap",
        [
          Alcotest.test_case "basic ordering" `Quick test_heap_basic;
          Alcotest.test_case "FIFO ties" `Quick test_heap_fifo_ties;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean/variance" `Quick test_stats_mean_var;
          Alcotest.test_case "empty mean raises" `Quick test_stats_empty_mean;
          Alcotest.test_case "percentiles" `Quick test_stats_percentiles;
          Alcotest.test_case "min/max" `Quick test_stats_min_max;
          Alcotest.test_case "linear fit exact" `Quick test_stats_linear_fit_exact;
          Alcotest.test_case "knee fit" `Quick test_stats_knee_fit;
        ] );
      ("units", [ Alcotest.test_case "round trips" `Quick test_units_roundtrip ]);
      ( "tabular",
        [
          Alcotest.test_case "render" `Quick test_tabular_render;
          Alcotest.test_case "extra cells dropped" `Quick
            test_tabular_extra_cells_dropped;
        ] );
      ( "edge cases",
        [
          Alcotest.test_case "knee needs points" `Quick
            test_stats_knee_needs_points;
          Alcotest.test_case "degenerate linear fit" `Quick
            test_stats_linear_fit_degenerate;
        ] );
      ( "lru",
        [
          Alcotest.test_case "basics" `Quick test_lru_basics;
          Alcotest.test_case "replace keeps one entry" `Quick test_lru_replace;
          Alcotest.test_case "zero capacity" `Quick test_lru_zero_capacity;
          Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter and gauge" `Quick
            test_metrics_counter_gauge;
          Alcotest.test_case "get-or-create aggregation" `Quick
            test_metrics_get_or_create;
          Alcotest.test_case "histogram ignores non-finite" `Quick
            test_metrics_histogram_non_finite;
          Alcotest.test_case "histogram 1..1000 permutation" `Quick
            test_metrics_histogram_permutation;
          Alcotest.test_case "snapshot and rendering" `Quick
            test_metrics_snapshot_and_render;
          Alcotest.test_case "json escaping" `Quick test_metrics_json_escape;
          Alcotest.test_case "adversarial instrument names" `Quick
            test_metrics_adversarial_names;
        ] );
      ( "tracelog",
        [
          Alcotest.test_case "span tree" `Quick test_tracelog_span_tree;
          Alcotest.test_case "disabled recorder" `Quick test_tracelog_disabled;
          Alcotest.test_case "bounded ring" `Quick test_tracelog_ring_bounded;
          Alcotest.test_case "chrome export" `Quick test_tracelog_chrome_json;
          Alcotest.test_case "render tree" `Quick test_tracelog_render_tree;
        ] );
      ( "sketch",
        [
          Alcotest.test_case "exact while small" `Quick
            test_sketch_exact_when_small;
          Alcotest.test_case "compaction bounds" `Quick
            test_sketch_compaction_bounds;
          Alcotest.test_case "rejects bad input" `Quick test_sketch_rejects;
          Alcotest.test_case "of_parts validation" `Quick test_sketch_of_parts;
        ] );
      ("properties", qsuite);
    ]
