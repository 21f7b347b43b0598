(* Wizard request-throughput benchmark on a synthetic 60-server x
   16-monitor status plane (the scale the ROADMAP's growth needs long
   before "millions of users").

   Two configurations of the very same request path are measured
   end-to-end (decode -> compile -> select -> encode):

   - cold: the compile cache is disabled and a status write lands
     between requests, so every request recompiles the requirement and
     rebuilds the server-view snapshot — the pre-cache behaviour;
   - warm: caching on and the database quiet between requests, so the
     compiled program and the snapshot are both reused;
   - warm+trace: the warm configuration again with a live span recorder
     attached, so the cost of the trace plane shows up as a ratio
     against the untraced warm run.

   A fourth figure prices the status write path: the words one full
   snapshot push of the plane costs the receiver, per server, the
   generation steps it causes (two: its security frame repeats the
   table the mirror holds, so it is skipped), and the snapshot rebuilds
   the push forces on the wizard (none: it changed no host).  A fifth
   prices the cold scan at scale: the words one
   [Selection.select_columns] call allocates over a 2,000-server plane,
   averaged over one requirement per scan path.  A sixth prices the key
   every warm request derives: the words one [Requirement.cache_key]
   call allocates, averaged over hot- and churn-shaped texts.

   Results go to stdout and to BENCH_wizard.json for trend tracking
   across PRs.  Words are minor-heap words plus words allocated directly
   on the major heap (blocks too large for the minor heap): neither
   depends on the host, so CI compares them against the committed file,
   unlike the wall-clock rates. *)

module C = Smart_core
module P = Smart_proto

let servers = 60
let monitors = 16

let host_of i = Printf.sprintf "srv%02d" i
let monitor_of i = Printf.sprintf "mon%02d" i

let report i =
  {
    P.Report.host = host_of i;
    ip = Printf.sprintf "10.9.%d.%d" (i / 250) (i mod 250);
    load1 = 0.05 *. float_of_int (i mod 8);
    load5 = 0.1;
    load15 = 0.1;
    cpu_user = 0.01 *. float_of_int (i mod 50);
    cpu_nice = 0.0;
    cpu_system = 0.01;
    cpu_free = 1.0 -. (0.01 *. float_of_int (i mod 50));
    bogomips = 2000.0 +. (100.0 *. float_of_int (i mod 30));
    mem_total = 512.0;
    mem_used = 12.0 +. float_of_int (i mod 400);
    mem_free = 500.0 -. float_of_int (i mod 400);
    mem_buffers = 16.0;
    mem_cached = 64.0;
    disk_rreq = 1.0;
    disk_rblocks = 8.0;
    disk_wreq = 1.0;
    disk_wblocks = 8.0;
    net_rbytes = 1024.0;
    net_rpackets = 4.0;
    net_tbytes = 2048.0;
    net_tpackets = 6.0;
  }

(* Every monitor reports an entry toward every server, so the peer index
   holds [monitors] candidates per target and the deterministic
   tie-break actually runs. *)
let populate db =
  for i = 0 to servers - 1 do
    C.Status_db.update_sys db
      { P.Records.report = report i; updated_at = 100.0 }
  done;
  for m = 0 to monitors - 1 do
    C.Status_db.update_net db
      {
        P.Records.monitor = monitor_of m;
        entries =
          List.init servers (fun i ->
              {
                P.Records.peer = host_of i;
                delay = 0.001 +. (0.0001 *. float_of_int m);
                bandwidth = 10e6 +. (1e5 *. float_of_int ((m + i) mod 7));
                measured_at = 50.0 +. float_of_int m;
              });
      }
  done;
  C.Status_db.replace_sec db
    {
      P.Records.entries =
        List.init servers (fun i ->
            { P.Records.host = host_of i; level = 1 + (i mod 5) });
    }

let requirement =
  "host_cpu_free > 0.2\n\
   host_memory_free > 10\n\
   monitor_network_bw > 1\n\
   host_security_level >= 1\n\
   order_by = host_memory_free\n"

let encoded_request =
  P.Wizard_msg.encode_request
    {
      P.Wizard_msg.seq = 7;
      server_num = 10;
      option = P.Wizard_msg.Accept_partial;
      requirement;
      trace = Smart_util.Tracelog.root;
    }

let from = { C.Output.host = "client"; port = 4000 }

(* The status writes the churn loop replays, built outside the timed
   region: the cost under measurement is the wizard plus the database
   write, not the synthesis of a report record. *)
let churn_records =
  Array.init servers (fun i ->
      { P.Records.report = report i; updated_at = 100.0 })

(* Words allocated so far: minor plus direct major.  [Gc.counters]'
   major words count promotions too, which the minor figure already
   holds, so they are subtracted.  The minor part comes from
   [Gc.minor_words]: on OCaml 5.1 the minor figure of [Gc.counters]
   undercounts the words of the current minor heap. *)
let words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* Requests/sec plus words allocated per request over a fixed wall-time
   budget.  [churn] injects one status write before
   every request, invalidating the snapshot the way a pre-index wizard
   rebuilt it unconditionally; its cost is charged to the cold number
   on purpose — that IS the cold path. *)
let measure ~churn ~budget wizard db =
  (* one untimed request to touch every lazy path *)
  ignore (C.Wizard.handle_request wizard ~now:0.0 ~from encoded_request);
  let t0 = Unix.gettimeofday () in
  let deadline = t0 +. budget in
  let iterations = ref 0 in
  let words0 = words () in
  while Unix.gettimeofday () < deadline do
    if churn then
      C.Status_db.update_sys db churn_records.(!iterations mod servers);
    ignore (C.Wizard.handle_request wizard ~now:1.0 ~from encoded_request);
    incr iterations
  done;
  let words1 = words () in
  let elapsed = Unix.gettimeofday () -. t0 in
  ( float_of_int !iterations /. elapsed,
    (words1 -. words0) /. float_of_int (max 1 !iterations) )

(* Drift-resistant A/B for the warm-vs-traced comparison: the two
   configurations alternate short slices of the shared budget, so a
   slow phase of a noisy host lands on both sides instead of biasing
   whichever happened to run through it.  The tracing overhead is a
   ratio of these two numbers — on a virtualized host, back-to-back
   whole-budget runs routinely drift more than the effect measured. *)
type ab_acc = {
  mutable ab_iters : int;
  mutable ab_elapsed : float;
  mutable ab_words : float;
}

let measure_ab ~budget wizard_a wizard_b =
  ignore (C.Wizard.handle_request wizard_a ~now:0.0 ~from encoded_request);
  ignore (C.Wizard.handle_request wizard_b ~now:0.0 ~from encoded_request);
  let slices = 8 in
  let slice = budget /. float_of_int (2 * slices) in
  let run wizard acc =
    let words0 = words () in
    let t0 = Unix.gettimeofday () in
    let deadline = t0 +. slice in
    let n = ref 0 in
    while Unix.gettimeofday () < deadline do
      ignore (C.Wizard.handle_request wizard ~now:1.0 ~from encoded_request);
      incr n
    done;
    acc.ab_iters <- acc.ab_iters + !n;
    acc.ab_elapsed <- acc.ab_elapsed +. (Unix.gettimeofday () -. t0);
    acc.ab_words <- acc.ab_words +. (words () -. words0)
  in
  let a = { ab_iters = 0; ab_elapsed = 0.0; ab_words = 0.0 } in
  let b = { ab_iters = 0; ab_elapsed = 0.0; ab_words = 0.0 } in
  for _ = 1 to slices do
    run wizard_a a;
    run wizard_b b
  done;
  let finish acc =
    ( float_of_int acc.ab_iters /. acc.ab_elapsed,
      acc.ab_words /. float_of_int (max 1 acc.ab_iters) )
  in
  (finish a, finish b)

(* JSON-safe float: a histogram quantile is only non-finite (nan) while
   the histogram is empty, but a crash-proof dump beats a clever one. *)
let json_float x = if Float.is_finite x then Printf.sprintf "%.9f" x else "null"

(* Words one full snapshot push of the plane costs, per server: the
   Sys, Net and Sec frames of one monitor's transmitter, encoded up
   front, decoded and committed by [Receiver.handle_stream] into a
   mirror that already holds the plane (the steady-state push).  A
   wizard over the mirror then reads the snapshot; the push changed no
   host, so that read must refresh it, not rebuild it.  Returns the
   words per server, the generation steps of the push and the rebuilds
   the read caused. *)
let push_cost () =
  let order = P.Endian.Little in
  let source = C.Status_db.create () in
  populate source;
  let tx =
    C.Transmitter.create ~monitor_name:(monitor_of 0)
      {
        C.Transmitter.mode = C.Transmitter.Centralized;
        order;
        receiver = { C.Output.host = "wizard"; port = P.Ports.receiver };
      }
      source
  in
  let push =
    String.concat ""
      (List.map (P.Frame.encode order) (C.Transmitter.snapshot_frames tx))
  in
  let mirror = C.Status_db.create () in
  let rx = C.Receiver.create ~order mirror in
  let wizard =
    C.Wizard.create { C.Wizard.mode = C.Wizard.Centralized; groups = None }
      mirror
  in
  let feed () =
    match C.Receiver.handle_stream rx ~from:(monitor_of 0) push with
    | Ok () -> ()
    | Error e -> failwith ("push_cost: " ^ e)
  in
  let read_snapshot () =
    ignore (C.Wizard.handle_request wizard ~now:0.0 ~from encoded_request)
  in
  feed ();
  read_snapshot ();
  let generation0 = C.Status_db.generation mirror in
  let words0 = words () in
  feed ();
  let words_per_server = (words () -. words0) /. float_of_int servers in
  let generations = C.Status_db.generation mirror - generation0 in
  let rebuilds0 = C.Wizard.snapshot_rebuilds wizard in
  read_snapshot ();
  (words_per_server, generations, C.Wizard.snapshot_rebuilds wizard - rebuilds0)

(* The cold scan at scale: one requirement per scan path — the sweep
   plan without and with order_by, the plan with constant host lists,
   and the interpreter (a computed order key and a host named through a
   bound temp) — each selecting 10 servers from a 2,000-server plane
   built from the same reports as the 60-server one. *)
let select_servers = 2000

let select_shapes =
  [|
    "host_cpu_free > 0.2\nhost_memory_free > 10\nmonitor_network_bw > 1\n";
    requirement;
    "user_preferred_host1 = srv42\nhost_cpu_free > 0.2\n\
     user_denied_host1 = 10.9.0.3\nuser_preferred_host2 = srv07\n";
    "host_cpu_free > 0.2\nt = host_memory_free + 4 * host_cpu_free\n\
     order_by = t\nuser_preferred_host1 = t\n";
  |]

(* Words per [select_columns] call for each shape, after one call that
   sizes the scratch; a fixed call count, so the figure does not depend
   on the budget. *)
let select_words () =
  let db = C.Status_db.create () in
  for i = 0 to select_servers - 1 do
    C.Status_db.update_sys db
      { P.Records.report = report i; updated_at = 100.0 }
  done;
  C.Status_db.update_net db
    {
      P.Records.monitor = monitor_of 0;
      entries =
        List.init select_servers (fun i ->
            {
              P.Records.peer = host_of i;
              delay = 0.001;
              bandwidth = 10e6 +. (1e5 *. float_of_int (i mod 7));
              measured_at = 50.0;
            });
    };
  C.Status_db.replace_sec db
    {
      P.Records.entries =
        List.init select_servers (fun i ->
            { P.Records.host = host_of i; level = 1 + (i mod 5) });
    };
  let view =
    C.Status_db.columns db ~net_for:(fun host ->
        C.Status_db.net_entry_for db ~target:host)
  in
  let scratch = C.Selection.scratch () in
  Array.map
    (fun source ->
      let fast =
        match Smart_lang.Requirement.compile_fast source with
        | Ok fast -> fast
        | Error _ -> failwith ("select_words: " ^ source)
      in
      let select () =
        C.Selection.select_columns scratch ~fast ~view ~wanted:10
      in
      ignore (select ());
      let calls = 200 in
      let words0 = words () in
      for _ = 1 to calls do
        ignore (Sys.opaque_identity (select ()))
      done;
      (words () -. words0) /. float_of_int calls)
    select_shapes

(* The key's texts: hot-shaped (this bench's requirement, with and
   without [order_by]) and churn-shaped (two to four conjuncts on
   decimal thresholds, with [order_by], a preferred host list or a
   denied one).  Words per call are averaged over a fixed call count
   per text, after one call each. *)
let key_texts =
  [|
    requirement;
    "host_cpu_free > 0.35\nhost_memory_free > 212\nmonitor_network_bw > 1\n\
     host_security_level >= 2\n";
    "host_cpu_free > 0.35\nhost_system_load1 < 2.75\n\
     monitor_network_delay < 4.5\norder_by = monitor_network_bw\n";
    "host_memory_free > 412\nhost_cpu_bogomips > 2210\n";
    "host_system_load1 < 1.5\nmonitor_network_bw > 22.5\n\
     user_preferred_host1 = c0042\nuser_preferred_host2 = c1017\n";
    "host_cpu_free > 0.6\norder_by = host_cpu_free\nuser_denied_host1 = c0003\n";
  |]

let cache_key_words () =
  let calls = 1000 in
  let total =
    Array.fold_left
      (fun acc text ->
        ignore (Smart_lang.Requirement.cache_key text);
        let words0 = words () in
        for _ = 1 to calls do
          ignore (Sys.opaque_identity (Smart_lang.Requirement.cache_key text))
        done;
        acc +. (words () -. words0))
      0.0 key_texts
  in
  total /. float_of_int (calls * Array.length key_texts)

(* ------------------------------------------------------------------ *)
(* Lossy-plane run: the same request path driven end-to-end through the
   simulator with 25% datagram loss on the client's link, so every
   answer leans on the client's retransmit + backoff machinery.  All on
   virtual time — the numbers are seed-deterministic, not wall-clock. *)

module H = Smart_host

let lossy_loss = 0.25
let lossy_requests = 200

let lossy_run () =
  let lan = H.Testbed.lan_conf in
  let c =
    H.Testbed.switched_lan ~seed:11
      ~access:(function
        | "cli" -> { lan with Smart_net.Link.loss = lossy_loss }
        | _ -> lan)
      [ ("sw", "10.0.0.254", H.Testbed.helenes "10.0.0" [ "wiz"; "cli"; "s1"; "s2" ]) ]
  in
  let d =
    C.Simdriver.deploy c ~monitor:"wiz" ~wizard_host:"wiz"
      ~servers:[ "s1"; "s2" ]
  in
  C.Simdriver.settle ~duration:8.0 d;
  let backoff =
    Smart_util.Backoff.policy ~base:0.05 ~multiplier:2.0 ~max_delay:0.5
      ~jitter:0.0 ()
  in
  let ok = ref 0 in
  for _ = 1 to lossy_requests do
    C.Simdriver.settle ~duration:0.1 d;
    match
      C.Simdriver.request ~attempts:6 ~backoff d ~client:"cli" ~wanted:1
        ~requirement:"host_cpu_free > 0.1\n"
    with
    | Ok _ -> incr ok
    | Error _ -> ()
  done;
  let m = C.Simdriver.metrics d in
  let success_rate = float_of_int !ok /. float_of_int lossy_requests in
  let retries =
    Smart_util.Metrics.counter_value m "client.retries_total"
  in
  (* the attempts histogram counts sends per request; retries per
     request is attempts - 1, a monotone shift, so the quantile moves
     with it *)
  let retry_p95 =
    match Smart_util.Metrics.find m "client.request_attempts" with
    | Some (Smart_util.Metrics.Histogram h) ->
      Float.max 0.0 (h.Smart_util.Metrics.p95 -. 1.0)
    | _ -> Float.nan
  in
  (success_rate, retries, retry_p95)

let run () =
  let mk ?trace ~capacity () =
    let db = C.Status_db.create () in
    populate db;
    let wizard =
      (* the real wall clock feeds wizard.request_latency_seconds; the
         default Sys.time is too coarse for µs-scale requests *)
      C.Wizard.create ~compile_cache_capacity:capacity ~clock:Unix.gettimeofday
        ?trace
        { C.Wizard.mode = C.Wizard.Centralized; groups = None }
        db
    in
    (wizard, db)
  in
  let budget =
    match Sys.getenv_opt "BENCH_BUDGET_S" with
    | Some s -> (try float_of_string s with _ -> 0.5)
    | None -> 0.5
  in
  let cold_wizard, cold_db = mk ~capacity:0 () in
  let cold_rps, cold_allocs = measure ~churn:true ~budget cold_wizard cold_db in
  let warm_wizard, _warm_db =
    mk ~capacity:C.Wizard.default_compile_cache_capacity ()
  in
  (* The traced run drives the same warm path with a live recorder at
     the flight-recorder depth the daemons deploy with (the default
     4096): recording is a ring overwrite, so capacity changes only
     retention, and an oversized ring would measure cache misses on the
     ring itself rather than the record path. *)
  let trace = Smart_util.Tracelog.create ~clock:Unix.gettimeofday () in
  let traced_wizard, _traced_db =
    mk ~trace ~capacity:C.Wizard.default_compile_cache_capacity ()
  in
  let (warm_rps, warm_allocs), (traced_rps, traced_allocs) =
    measure_ab ~budget warm_wizard traced_wizard
  in
  let push_words, push_generations, push_rebuilds = push_cost () in
  let shape_words = select_words () in
  let select_words_2000 =
    Array.fold_left ( +. ) 0.0 shape_words
    /. float_of_int (Array.length shape_words)
  in
  let key_words = cache_key_words () in
  let trace_overhead = (warm_rps -. traced_rps) /. warm_rps in
  let speedup = warm_rps /. cold_rps in
  let hits, misses = C.Wizard.compile_cache_stats warm_wizard in
  let rhits, rmisses = C.Wizard.result_cache_stats warm_wizard in
  let cold_lat = C.Wizard.request_latency_summary cold_wizard in
  let warm_lat = C.Wizard.request_latency_summary warm_wizard in
  let traced_lat = C.Wizard.request_latency_summary traced_wizard in
  let us x = Fmt.str "%.1f" (x *. 1e6) in
  let tab =
    Smart_util.Tabular.create
      ~title:
        (Printf.sprintf "wizard request throughput (%d servers, %d monitors)"
           servers monitors)
      ~header:
        [
          "configuration"; "requests/s"; "p50 µs"; "p95 µs"; "p99 µs";
          "snapshot rebuilds";
        ]
  in
  Smart_util.Tabular.add_row tab
    [
      "cold (no caches, churning db)";
      Fmt.str "%.0f" cold_rps;
      us cold_lat.Smart_util.Metrics.p50;
      us cold_lat.Smart_util.Metrics.p95;
      us cold_lat.Smart_util.Metrics.p99;
      string_of_int (C.Wizard.snapshot_rebuilds cold_wizard);
    ];
  Smart_util.Tabular.add_row tab
    [
      "warm (compile + snapshot cache)";
      Fmt.str "%.0f" warm_rps;
      us warm_lat.Smart_util.Metrics.p50;
      us warm_lat.Smart_util.Metrics.p95;
      us warm_lat.Smart_util.Metrics.p99;
      string_of_int (C.Wizard.snapshot_rebuilds warm_wizard);
    ];
  Smart_util.Tabular.add_row tab
    [
      "warm + tracing (span recorder on)";
      Fmt.str "%.0f" traced_rps;
      us traced_lat.Smart_util.Metrics.p50;
      us traced_lat.Smart_util.Metrics.p95;
      us traced_lat.Smart_util.Metrics.p99;
      string_of_int (C.Wizard.snapshot_rebuilds traced_wizard);
    ];
  Smart_util.Tabular.print tab;
  Fmt.pr
    "speedup: %.1fx (compile cache: %d hits / %d misses; result cache: %d \
     hits / %d misses)@."
    speedup hits misses rhits rmisses;
  Fmt.pr "tracing overhead: %.1f%% (%d spans recorded)@."
    (100.0 *. trace_overhead)
    (Smart_util.Tracelog.total_recorded trace);
  Fmt.pr
    "allocation (minor + direct major words): cold %.0f/request, warm %.0f, \
     warm traced %.0f; snapshot push %.0f/server (%d generations, %d \
     snapshot rebuilds)@."
    cold_allocs warm_allocs traced_allocs push_words push_generations
    push_rebuilds;
  Fmt.pr
    "selection over %d servers (words per call, wanted 10): sweep %.0f, \
     sweep + order_by %.0f, host lists %.0f, interpreter %.0f; mean %.1f@."
    select_servers shape_words.(0) shape_words.(1) shape_words.(2)
    shape_words.(3) select_words_2000;
  Fmt.pr "cache key (words per Requirement.cache_key call, %d texts): %.1f@."
    (Array.length key_texts) key_words;
  let success_rate, lossy_retries, retry_p95 = lossy_run () in
  Fmt.pr
    "lossy plane (%.0f%% datagram loss, %d requests): success rate %.3f, \
     %d retransmits, retry p95 %.1f@."
    (100.0 *. lossy_loss) lossy_requests success_rate lossy_retries retry_p95;
  let oc = open_out "BENCH_wizard.json" in
  Printf.fprintf oc
    "{\n\
    \  \"benchmark\": \"wizard_request_throughput\",\n\
    \  \"servers\": %d,\n\
    \  \"monitors\": %d,\n\
    \  \"budget_s\": %.2f,\n\
    \  \"cold_requests_per_sec\": %.1f,\n\
    \  \"warm_requests_per_sec\": %.1f,\n\
    \  \"speedup\": %.2f,\n\
    \  \"cold_latency_p50_s\": %s,\n\
    \  \"cold_latency_p95_s\": %s,\n\
    \  \"cold_latency_p99_s\": %s,\n\
    \  \"warm_latency_p50_s\": %s,\n\
    \  \"warm_latency_p95_s\": %s,\n\
    \  \"warm_latency_p99_s\": %s,\n\
    \  \"warm_traced_requests_per_sec\": %.1f,\n\
    \  \"warm_traced_latency_p50_s\": %s,\n\
    \  \"warm_traced_latency_p95_s\": %s,\n\
    \  \"warm_traced_latency_p99_s\": %s,\n\
    \  \"trace_overhead_fraction\": %.4f,\n\
    \  \"trace_overhead_spans_recorded\": %d,\n\
    \  \"cold_allocs_per_req\": %.1f,\n\
    \  \"warm_allocs_per_req\": %.1f,\n\
    \  \"warm_traced_allocs_per_req\": %.1f,\n\
    \  \"push_words_per_server\": %.1f,\n\
    \  \"push_generations\": %d,\n\
    \  \"push_snapshot_rebuilds\": %d,\n\
    \  \"select_words_2000\": %.1f,\n\
    \  \"cache_key_words\": %.1f,\n\
    \  \"warm_compile_cache_hits\": %d,\n\
    \  \"warm_compile_cache_misses\": %d,\n\
    \  \"warm_result_cache_hits\": %d,\n\
    \  \"warm_result_cache_misses\": %d,\n\
    \  \"warm_snapshot_rebuilds\": %d,\n\
    \  \"lossy_datagram_loss\": %.2f,\n\
    \  \"lossy_requests\": %d,\n\
    \  \"request_success_rate\": %.4f,\n\
    \  \"lossy_retries_total\": %d,\n\
    \  \"retry_p95\": %s\n\
     }\n"
    servers monitors budget cold_rps warm_rps speedup
    (json_float cold_lat.Smart_util.Metrics.p50)
    (json_float cold_lat.Smart_util.Metrics.p95)
    (json_float cold_lat.Smart_util.Metrics.p99)
    (json_float warm_lat.Smart_util.Metrics.p50)
    (json_float warm_lat.Smart_util.Metrics.p95)
    (json_float warm_lat.Smart_util.Metrics.p99)
    traced_rps
    (json_float traced_lat.Smart_util.Metrics.p50)
    (json_float traced_lat.Smart_util.Metrics.p95)
    (json_float traced_lat.Smart_util.Metrics.p99)
    trace_overhead
    (Smart_util.Tracelog.total_recorded trace)
    cold_allocs warm_allocs traced_allocs push_words push_generations
    push_rebuilds select_words_2000 key_words hits misses rhits rmisses
    (C.Wizard.snapshot_rebuilds warm_wizard)
    lossy_loss lossy_requests success_rate lossy_retries
    (json_float retry_p95);
  close_out oc;
  Fmt.pr "wrote BENCH_wizard.json@."
