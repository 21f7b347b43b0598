(* The request ledger: one closed-loop workload per run, one caller
   thread, every answer checked.

     ledger.exe --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 measures the end-to-end metrics.  --trace 1 alternates
   untraced slices (the tracing-overhead baseline) with slices whose
   spans this program records around its calls into each layer, then
   runs the probe pass and prints the per-layer metrics.  Human
   readable lines come first; the last line of stdout is one JSON
   object.  The spans of a traced run are written to
   .perfbench/spans-NAME.tsv under the current directory.

   --corrupt-reply K corrupts the reply of measured request K before it
   is checked; the smoke test uses it to prove mismatches are counted. *)

module C = Smart_core
module M = Meter
module W = Workloads

type phase = { count : int; ok : int; failed : int; wall_ns : int; words : int }

let add p q =
  {
    count = p.count + q.count;
    ok = p.ok + q.ok;
    failed = p.failed + q.failed;
    wall_ns = p.wall_ns + q.wall_ns;
    words = p.words + q.words;
  }

let zero = { count = 0; ok = 0; failed = 0; wall_ns = 0; words = 0 }

let deadline_of seconds = M.now_ns () + int_of_float (seconds *. 1e9)

(* The untraced closed loop: one request at a time, each timed from the
   call into the system to its decoded, checked reply. *)
let measure (live : W.live) samples ~first ~seconds =
  let ok = ref 0 and failed = ref 0 and i = ref first in
  let words0 = M.minor_words () in
  let t_begin = M.now_ns () in
  let deadline = deadline_of seconds in
  let go = ref (samples.M.n < M.capacity samples) in
  while !go do
    live.between !i;
    let t0 = M.now_ns () in
    let good = live.run !i in
    let t1 = M.now_ns () in
    M.record samples (t1 - t0);
    if good then incr ok else incr failed;
    incr i;
    go := t1 < deadline && samples.M.n < M.capacity samples
  done;
  let t_end = M.now_ns () in
  let words1 = M.minor_words () in
  {
    count = !i - first;
    ok = !ok;
    failed = !failed;
    wall_ns = t_end - t_begin;
    words = words1 - words0;
  }

(* Spans left for the probe pass when the traced loop stops. *)
let probe_reserve = 1 lsl 17

(* A traced slice also stops once it has recorded [spans] more spans. *)
let measure_traced (live : W.live) sp ~first ~seconds ~spans =
  let ok = ref 0 and failed = ref 0 and i = ref first in
  let t_begin = M.now_ns () in
  let deadline = deadline_of seconds in
  let limit = sp.M.used + spans - 256 in
  let go = ref true in
  while !go do
    live.between_traced sp !i;
    let r = M.start sp ~req:!i ~parent:(-1) M.Request in
    let good = live.run_traced sp !i r in
    M.finish sp r;
    if good then incr ok else incr failed;
    incr i;
    go := M.now_ns () < deadline && sp.M.used < limit
  done;
  { count = !i - first; ok = !ok; failed = !failed; wall_ns = M.now_ns () - t_begin; words = 0 }

(* The traced run alternates traced and untraced slices of equal wall
   time, so a host whose speed drifts over the run shifts both sides
   alike.  A traced slice ends after its share of the run or of the
   span buffer, whichever comes first (a fast workload fills the buffer
   long before the run is over); the untraced slice after it runs as
   long as it did. *)
let slices = 16

let interleave live samples sp ~seconds =
  let slice = seconds /. float_of_int (2 * slices) in
  let share = (M.span_capacity sp - probe_reserve) / slices in
  (* counters move only over the untraced slices: the traced ones
     time snapshot rebuilds on their own and replay layer calls *)
  let rec go k a b c =
    if k = slices then (a, b, c)
    else begin
      let pb = measure_traced live sp ~first:(a.count + b.count) ~seconds:slice ~spans:share in
      let b = add b pb in
      let c0 = live.W.counters () in
      let pa =
        measure live samples ~first:(a.count + b.count)
          ~seconds:(float_of_int pb.wall_ns *. 1e-9)
      in
      let c = W.add_counters c (W.sub_counters (live.W.counters ()) c0) in
      go (k + 1) (add a pa) b c
    end
  in
  go 0 zero zero W.no_counters

let per_second count wall_ns = float_of_int count /. (float_of_int wall_ns *. 1e-9)

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* Per call of the metering primitives, replaying the workload's own
   latency stream into a fresh registry and a fresh sketch. *)
let replay_stream (samples : M.samples) observe =
  let n = samples.M.n in
  let w0 = M.minor_words () in
  let t0 = M.now_ns () in
  for i = 0 to n - 1 do
    observe (float_of_int (M.sample samples i) *. 1e-9)
  done;
  let t1 = M.now_ns () in
  let w1 = M.minor_words () in
  (ratio (t1 - t0) n, ratio (w1 - w0) n)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

(* The untraced run is cut into [set_ups] equal segments with a
   throwaway set-up (and a full major GC) between each two, so setup_s
   is the median of [set_ups] set-ups spread over the run.  The timings
   cover the whole measured phase: exact percentiles over every sample,
   and correctly answered requests per wall-clock second of the
   segments (set-ups excluded).  Each segment's own p50 is printed, to
   show how steady the host was over the run. *)
let set_ups = 10

let median_float xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let segment_p50 samples ~from ~count =
  let a = Array.init count (fun k -> M.sample samples (from + k)) in
  Array.sort Int.compare a;
  M.percentile a 0.50

let segmented (live : W.live) samples ~seconds ~setup =
  let segment = seconds /. float_of_int set_ups in
  let rec go k total setups p50s =
    if k = set_ups || samples.M.n >= M.capacity samples then
      (total, Array.of_list (List.rev setups), List.rev p50s)
    else begin
      let setups =
        if k = 0 then setups
        else begin
          let t = setup () in
          Gc.full_major ();
          t :: setups
        end
      in
      let from = samples.M.n in
      let phase = measure live samples ~first:total.count ~seconds:segment in
      let p50 = segment_p50 samples ~from ~count:phase.count in
      go (k + 1) (add total phase) setups (p50 :: p50s)
    end
  in
  go 0 zero [] []

let end_to_end ~samples ~setups ~(total : phase) ~p50s ~bad ~heap_words =
  let pool = M.sorted samples in
  Printf.printf "  segment p50s: %s us; set-ups: %s s\n"
    (String.concat " " (List.map (fun ns -> Printf.sprintf "%.1f" (float_of_int ns *. 1e-3)) p50s))
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.4f") setups)));
  let s ns = float_of_int ns *. 1e-9 in
  [
    metric "setup_s" "s" (median_float setups);
    metric "req_per_s" "req/s" (per_second (total.ok - List.length bad) total.wall_ns);
    metric "latency_p50_s" "s" (s (M.percentile pool 0.50));
    metric "latency_p99_s" "s" (s (M.percentile pool 0.99));
    metric "alloc_words_per_req" "words" (ratio total.words total.count);
    metric "heap_live_mb" "MB" (M.words_to_mb heap_words);
  ]

(* A hit ratio whose lookups never happen on the workload's own path (no
   result-cache lookup on fed_fanout's subquery path, no compile lookup
   behind hot_repeat's result hits) is taken over the probe pass's
   lookups on the kit's wizard instead. *)
let hit_ratio (hits, misses) (probe_hits, probe_misses) =
  if hits + misses > 0 then ratio hits (hits + misses)
  else ratio probe_hits (probe_hits + probe_misses)

(* What makes a traced run's attribution unusable: a layer whose mean
   self time or self words is negative (its replayed children outweigh
   the call they are charged to), or, where the workload sets a gate, a
   per-request layer sum that strays from the untraced mean request
   time by more than the gate. *)
let attribution_problems ~sp ~gate ~gap =
  let st = M.layer_stats sp in
  let negative =
    Array.to_list M.layers
    |> List.filter_map (fun l ->
           let s = st l in
           if s.M.calls > 0 && (s.M.self_ns < 0.0 || s.M.self_words < 0.0) then
             Some
               (Printf.sprintf "%s: mean self %.1f ns, %.1f words" (M.layer_name l)
                  s.M.self_ns s.M.self_words)
           else None)
  in
  match gate with
  | Some g when gap > g ->
    negative @ [ Printf.sprintf "per-request layer sum %.3f from the untraced mean (gate %.2f)" gap g ]
  | _ -> negative

let per_layer ~(a : phase) ~(b : phase) ~samples ~sp ~(c : W.counters)
    ~(probe : W.counters) ~(kit : W.kit) ~gap =
  let st = M.layer_stats sp in
  let dur l = (st l).M.dur_ns and dwords l = (st l).M.dur_words in
  let mean_a = M.mean samples in
  let served_mean =
    if c.served_count = 0 then 0.0
    else c.served_sum /. float_of_int c.served_count *. 1e9
  in
  let hist_ns, hist_words =
    let h =
      Smart_util.Metrics.histogram (Smart_util.Metrics.create ())
        "wizard.request_latency_seconds"
    in
    replay_stream samples (Smart_util.Metrics.Histogram.observe h)
  in
  let sketch_ns, sketch_words =
    replay_stream samples (Smart_util.Sketch.observe (Smart_util.Sketch.create ()))
  in
  let fed = kit.W.k_fed in
  let root = fed.Steps.root in
  let sent = C.Fed_root.subqueries_sent root and skipped = C.Fed_root.shards_skipped root in
  [
    metric "proto.decode_request_ns" "ns" (dur M.Decode_request);
    metric "proto.decode_request_words" "words" (dwords M.Decode_request);
    metric "proto.encode_reply_ns" "ns" (dur M.Encode_reply);
    metric "proto.encode_reply_words" "words" (dwords M.Encode_reply);
    metric "proto.fed_bytes_per_req" "bytes" (ratio fed.Steps.bytes fed.Steps.requests);
    metric "lang.cache_key_ns" "ns" (dur M.Cache_key);
    metric "lang.cache_key_words" "words" (dwords M.Cache_key);
    metric "lang.compile_ns" "ns" (dur M.Compile);
    metric "lang.compile_words" "words" (dwords M.Compile);
    metric "wizard.result_hit_ratio" "ratio"
      (hit_ratio (c.result_hits, c.result_misses) (probe.result_hits, probe.result_misses));
    metric "wizard.compile_hit_ratio" "ratio"
      (hit_ratio (c.compile_hits, c.compile_misses) (probe.compile_hits, probe.compile_misses));
    metric "wizard.self_ns" "ns" (st M.Handle_request).M.self_ns;
    metric "wizard.self_words" "words" (st M.Handle_request).M.self_words;
    metric "wizard.subquery_ns" "ns" (dur M.Subquery);
    metric "status_db.columns_ns" "ns" (dur M.Columns);
    metric "status_db.rebuilds_per_push" "count"
      (ratio c.rebuilds c.pushes);
    metric "selection.select_columns_ns" "ns" (dur M.Select_columns);
    metric "selection.select_columns_words" "words" (dwords M.Select_columns);
    metric "selection.select_scored_ns" "ns" (dur M.Select_scored);
    metric "selection.select_scored_words" "words" (dwords M.Select_scored);
    metric "selection.merge_ns" "ns" (dur M.Merge);
    metric "receiver.push_ns" "ns" (dur M.Receiver_push);
    metric "receiver.push_words" "words" (dwords M.Receiver_push);
    metric "fed_root.request_ns" "ns" (dur M.Fed_request);
    metric "fed_root.reply_ns" "ns"
      (let s = st M.Fed_reply in
       s.M.dur_ns *. ratio s.M.calls fed.Steps.requests);
    metric "fed_root.shards_per_req" "count" (ratio sent (C.Fed_root.requests_handled root));
    metric "fed_root.skip_ratio" "ratio" (ratio skipped (sent + skipped));
    metric "fed_root.useful_subquery_ratio" "ratio"
      (ratio fed.Steps.useful fed.Steps.subqueries);
    metric "realnet.wizard_mean_ns" "ns" served_mean;
    metric "realnet.gap_ns" "ns" (mean_a -. served_mean);
    metric "realnet.socket_setup_ns" "ns" (dur M.Socket_setup);
    metric "client.check_reply_ns" "ns" (dur M.Check_reply);
    metric "client.retries_per_req" "count" (ratio c.retries a.count);
    metric "util.histogram_observe_ns" "ns" hist_ns;
    metric "util.histogram_observe_words" "words" hist_words;
    metric "util.sketch_observe_ns" "ns" sketch_ns;
    metric "util.sketch_observe_words" "words" sketch_words;
    metric "trace.overhead_frac" "ratio"
      (1.0 -. (per_second b.count b.wall_ns /. per_second a.count a.wall_ns));
    metric "trace.attribution_gap_frac" "ratio" gap;
  ]

let print_layers sp =
  let st = M.layer_stats sp in
  Printf.printf "%-28s %9s %12s %12s %10s %10s %6s\n" "span" "calls" "mean ns"
    "self ns" "words" "self w" "neg";
  Array.iter
    (fun l ->
      let s = st l in
      if s.M.calls > 0 then
        Printf.printf "%-28s %9d %12.1f %12.1f %10.1f %10.1f %6d\n" (M.layer_name l)
          s.M.calls s.M.dur_ns s.M.self_ns s.M.dur_words s.M.self_words
          s.M.negative_self)
    M.layers

let json ~correct ~attempted ~failed metrics =
  let field m =
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.name m.value m.unit_
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map field metrics))

(* One file per workload, overwritten by its latest traced run: a run
   can hold half a million spans, and a file per seed would pile up. *)
let spans_path ~workload =
  let dir = ".perfbench" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Filename.concat dir (Printf.sprintf "spans-%s.tsv" workload)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and corrupt = ref (-1) in
  let usage = "ledger.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME " ^ String.concat ", " (List.map (fun w -> w.W.name) W.all) );
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run or traced per-layer run");
      ("--corrupt-reply", Arg.Set_int corrupt, "K corrupt measured reply K (self-test)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let wl =
    match List.find_opt (fun w -> String.equal w.W.name !workload) W.all with
    | Some w -> w
    | None ->
      prerr_endline ("unknown workload; " ^ usage);
      exit 2
  in
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline usage;
    exit 2
  end;
  let traced = !trace = 1 and seed = !seed and seconds = !seconds in
  let max_requests = int_of_float (seconds *. float_of_int wl.W.per_second) + 1024 in
  let setup = wl.W.prepare ~seed ~corrupt:!corrupt ~max_requests in
  let samples = M.samples max_requests in
  let sp = M.spans (if traced then 1 lsl 19 else 1) in
  let baseline = M.live_words () in
  let timed_setup () =
    let t0 = M.now_ns () in
    let live = setup () in
    (live, float_of_int (M.now_ns () - t0) *. 1e-9)
  in
  let live, first_setup = timed_setup () in
  let attempted, failed, problems, metrics =
    Fun.protect ~finally:live.W.close (fun () ->
        if not traced then begin
          let throwaway () =
            let other, t = timed_setup () in
            other.W.close ();
            t
          in
          let total, setups, p50s = segmented live samples ~seconds ~setup:throwaway in
          let setups = Array.append [| first_setup |] setups in
          let heap_words = M.live_words () - baseline - live.W.retained () in
          let bad = live.W.verify () in
          ( total.count,
            total.failed + List.length bad,
            [],
            end_to_end ~samples ~setups ~total ~p50s ~bad ~heap_words )
        end
        else begin
          let a, b, c = interleave live samples sp ~seconds in
          let kit = live.W.kit () in
          let before = W.wizard_counters kit.W.k_wizard.Steps.wizard in
          Probes.run sp kit ~first:(a.count + b.count);
          let probe = W.sub_counters (W.wizard_counters kit.W.k_wizard.Steps.wizard) before in
          let bad = live.W.verify () in
          print_layers sp;
          M.write_spans sp (spans_path ~workload:wl.W.name);
          let mean_a = M.mean samples in
          let gap = Float.abs (M.layer_sum_per_request sp -. mean_a) /. mean_a in
          ( a.count + b.count,
            a.failed + b.failed + List.length bad,
            attribution_problems ~sp ~gate:wl.W.attribution_gate ~gap,
            per_layer ~a ~b ~samples ~sp ~c ~probe ~kit ~gap )
        end)
  in
  Printf.printf "workload %s seed %d trace %d: %d requests, %d failed, failed_frac %.6g\n"
    wl.W.name seed !trace attempted failed (ratio failed attempted);
  List.iter (fun m -> Printf.printf "  %-34s %.6g %s\n" m.name m.value m.unit_) metrics;
  List.iter (Printf.eprintf "attribution: %s\n") problems;
  match List.find_opt (fun m -> not (Float.is_finite m.value)) metrics with
  | Some m ->
    Printf.eprintf "metric %s is not finite\n" m.name;
    exit 1
  | None ->
    print_endline (json ~correct:(failed = 0 && problems = []) ~attempted ~failed metrics)
