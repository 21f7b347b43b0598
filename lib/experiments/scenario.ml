(* The seeded scenarios: every run whose output CI diffs run against run
   and tools/sim_identity.sh diffs commit against commit.  Each entry
   states once its seed, world, deployment, fault plan, workload,
   summary, files, markers and gate; examples/<name>_demo.exe, the
   session bench's churn phase and the acceptance tests all run the
   entries below, so none carries its own copy. *)

module C = Smart_core
module H = Smart_host
module F = Smart_sim.Faults
module M = Smart_util.Metrics

type workload =
  | Requests of {
      client : string;
      count : int;
      every : float;
      wanted : int;
      requirement : string;
    }
  | Sessions of {
      clients : (string * int) list;
      requirement : string;
      work_interval : float;
      duration : float;
    }
  | Traced_request of { client : string; wanted : int; requirement : string }

type tally =
  | Answered of { ok : int; total : int }
  | Ledger of C.Simdriver.session_report
  | Reply of (string list, C.Client.error) result

type t = {
  name : string;
  seed : int;
  world : int -> H.Cluster.t;
  config : C.Simdriver.config;
  deploy : config:C.Simdriver.config -> H.Cluster.t -> C.Simdriver.t;
  plan : F.plan;
  workload : workload;
  summary : C.Simdriver.t -> tally -> string list;
  files : (string * (C.Simdriver.t -> string)) list;
  markers : (string * string) list;
  gate : tally -> bool;
}

type outcome = {
  cluster : H.Cluster.t;
  deployment : C.Simdriver.t;
  tally : tally;
  report : string list;
  outputs : (string * string) list;
}

let settle = 8.0

let run ?seed s =
  let c = s.world (Option.value seed ~default:s.seed) in
  let d = s.deploy ~config:s.config c in
  C.Simdriver.settle ~duration:settle d;
  let base = H.Cluster.now c in
  (* an empty plan arms nothing, so it registers no faults.* counters *)
  if not (List.is_empty s.plan) then
    C.Simdriver.install_faults d
      (List.map (fun (e : F.event) -> { e with F.at = base +. e.F.at }) s.plan);
  let tally =
    match s.workload with
    | Requests { client; count; every; wanted; requirement } ->
      let ok = ref 0 in
      for _ = 1 to count do
        C.Simdriver.settle ~duration:every d;
        if Result.is_ok (C.Simdriver.request d ~client ~wanted ~requirement)
        then incr ok
      done;
      C.Simdriver.settle ~duration:10.0 d;
      Answered { ok = !ok; total = count }
    | Sessions { clients; requirement; work_interval; duration } ->
      Ledger
        (C.Simdriver.run_sessions d ~clients ~requirement ~work_interval
           ~duration)
    | Traced_request { client; wanted; requirement } ->
      Reply (C.Simdriver.request d ~client ~wanted ~requirement)
  in
  let report = s.summary d tally in
  let outputs = List.map (fun (path, render) -> (path, render d)) s.files in
  { cluster = c; deployment = d; tally; report; outputs }

let contains text pattern =
  let n = String.length text and k = String.length pattern in
  let rec from i j =
    j = k || (Char.equal text.[i + j] pattern.[j] && from i (j + 1))
  in
  let rec at i = i + k <= n && (from i 0 || at (i + 1)) in
  at 0

let missing_markers s o =
  List.filter
    (fun (file, pattern) ->
      match List.assoc_opt file o.outputs with
      | Some text -> not (contains text pattern)
      | None -> true)
    s.markers

(* ------------------------------------------------------------------ *)
(* The entries                                                          *)
(* ------------------------------------------------------------------ *)

let helenes = H.Testbed.helenes

(* <stem>_metrics.txt, the metrics registry in text exposition format,
   and <stem>_trace.json, the span ring as Chrome trace-event JSON; the
   summary's last line names both. *)
let seeded_files stem =
  [
    (stem ^ "_metrics.txt", fun d -> M.to_text (C.Simdriver.metrics d));
    (stem ^ "_trace.json", C.Simdriver.trace_json);
  ]

let same_bytes stem =
  [
    "";
    Printf.sprintf
      "wrote %s_metrics.txt and %s_trace.json — same seed, same bytes" stem
      stem;
  ]

let answered = function
  | Answered { ok; total } -> Printf.sprintf "requests answered: %d/%d" ok total
  | Ledger _ | Reply _ -> invalid_arg "Scenario.answered: not a request loop"

(* Transmitters push every 0.5 s with CRC trailers; 3 s of receiver
   silence flags the wizard's replies degraded. *)
let chaos_config =
  {
    C.Simdriver.default_config with
    C.Simdriver.transmit_interval = 0.5;
    frame_crc = true;
    wizard_staleness = 3.0;
  }

(* Chaos on a two-group deployment.  Two server groups behind their own
   switches (mon-a/a1/a2 and mon-b/b1/b2), a wizard and a client; the
   fault plan arms while the client fires 100 smart-socket requests:

   - 2% frame corruption on every transmitter stream (CRC trailers on,
     so the receiver detects the damage and resynchronises);
   - the wizard-feed transmitter host mon-a crashes mid-stream and
     restarts 13 virtual seconds later;
   - the other group's monitor mon-b is partitioned and healed, the
     outages overlapping long enough that the wizard's receiver feed
     goes fully quiet and degraded mode engages.

   The summary gives the request outcome and the recovery counters. *)
let chaos =
  {
    name = "chaos";
    seed = 3;
    world =
      (fun seed ->
        H.Testbed.switched_lan ~seed
          [
            ( "sw-a",
              "10.1.0.254",
              helenes "10.0.0" [ "wiz"; "cli" ]
              @ helenes "10.1.0" [ "mon-a"; "a1"; "a2" ] );
            ("sw-b", "10.2.0.254", helenes "10.2.0" [ "mon-b"; "b1"; "b2" ]);
          ]);
    config = chaos_config;
    deploy =
      (fun ~config c ->
        C.Simdriver.deploy_groups ~config c ~wizard_host:"wiz"
          ~groups:[ ("mon-a", [ "a1"; "a2" ]); ("mon-b", [ "b1"; "b2" ]) ]);
    plan =
      [
        { F.at = 0.1; action = F.Corrupt_frames 0.02 };
        { F.at = 5.0; action = F.Crash_node "mon-a" };
        { F.at = 8.0; action = F.Partition_host "mon-b" };
        { F.at = 18.0; action = F.Restart_node "mon-a" };
        { F.at = 22.0; action = F.Heal_host "mon-b" };
      ];
    workload =
      Requests
        { client = "cli"; count = 100; every = 0.4; wanted = 2;
          requirement = "host_cpu_free > 0.1\n" };
    summary =
      (fun d tally ->
        let cv = M.counter_value (C.Simdriver.metrics d) in
        [
          "";
          answered tally;
          Printf.sprintf "frames corrupted in flight: %d"
            (cv "faults.corrupted_messages_total");
          Printf.sprintf "receiver resyncs / decode errors: %d / %d"
            (cv "receiver.resyncs_total")
            (cv "receiver.decode_errors_total");
          Printf.sprintf "transmitter send failures / resends: %d / %d"
            (cv "transmitter.send_failures_total")
            (cv "transmitter.resends_total");
          Printf.sprintf "degraded wizard replies: %d"
            (cv "wizard.degraded_replies_total");
          Printf.sprintf "servers mirrored after recovery: %d"
            (C.Status_db.sys_count (C.Simdriver.db_wizard d));
        ]
        @ same_bytes "chaos");
    files = seeded_files "chaos";
    markers = [];
    gate = Fun.const true;
  }

(* Session-plane chaos (DESIGN.md §15).  Four servers behind one switch
   plus a wizard, a monitor and a client; six long-lived sessions run
   through a fault plan aimed at the servers themselves:

   - s1 crashes mid-run and restarts 10 virtual seconds later;
   - s2 is partitioned and healed;

   so sessions bound to the dead servers must requeue their in-flight
   work, re-ask the wizard and migrate mid-session.  The summary is the
   session ledger, and the gate holds it: every session survives, at
   least one migration happens and nothing is lost.  The metrics file
   carries the session.* and wizard.admission_* families; in the trace
   the session.migrate spans are parented on their origin
   client.request.  The session bench's churn phase runs this entry
   with its own session count and duration. *)
let session_chaos =
  {
    name = "session_chaos";
    seed = 11;
    world =
      (fun seed ->
        H.Testbed.switched_lan ~seed
          [
            ( "sw",
              "10.0.0.254",
              helenes "10.0.0" [ "wiz"; "cli"; "mon" ]
              @ helenes "10.0.1" [ "s1"; "s2"; "s3"; "s4" ] );
          ]);
    config = chaos_config;
    deploy =
      (fun ~config c ->
        C.Simdriver.deploy ~config c ~monitor:"mon" ~wizard_host:"wiz"
          ~servers:[ "s1"; "s2"; "s3"; "s4" ]);
    plan =
      [
        { F.at = 4.3; action = F.Crash_node "s1" };
        { F.at = 8.1; action = F.Partition_host "s2" };
        { F.at = 14.2; action = F.Restart_node "s1" };
        { F.at = 18.1; action = F.Heal_host "s2" };
      ];
    workload =
      Sessions
        { clients = [ ("cli", 6) ]; work_interval = 0.5; duration = 20.0;
          requirement = "host_cpu_free > 0.05\norder_by = host_memory_free\n" };
    summary =
      (fun _ -> function
        | Ledger r ->
          [
            "";
            Printf.sprintf "sessions survived: %d/%d" r.C.Simdriver.survived
              r.C.Simdriver.sessions;
            Printf.sprintf "mid-session migrations: %d" r.C.Simdriver.migrations;
            Printf.sprintf
              "work issued / completed / requeued / lost: %d / %d / %d / %d"
              r.C.Simdriver.work_issued r.C.Simdriver.work_completed
              r.C.Simdriver.work_requeued r.C.Simdriver.work_lost;
          ]
          @ same_bytes "session_chaos"
        | Answered _ | Reply _ -> invalid_arg "Scenario.session_chaos: no ledger");
    files = seeded_files "session_chaos";
    markers =
      [
        ("session_chaos_metrics.txt", "session.migrations_total counter");
        ("session_chaos_metrics.txt", "session.work_requeued_total counter");
        ("session_chaos_trace.json", "session.migrate");
      ];
    gate =
      (function
      | Ledger r ->
        r.C.Simdriver.survived = r.C.Simdriver.sessions
        && r.C.Simdriver.migrations >= 1
        && r.C.Simdriver.work_lost = 0
      | Answered _ | Reply _ -> false);
  }

(* Closed-loop control on a federated deployment (DESIGN.md §14): all
   three adaptive control loops armed at once on a two-shard federation
   while the fault plan makes servers flap and a client keeps
   requesting.

   - adaptive probes: each probe self-schedules on its effective report
     interval, derived from the spread of its load1 sketch;
   - adaptive quarantine: each sysmon tunes its flap threshold from the
     fleet's flap-score sketch;
   - adaptive staleness: each wizard derives degraded mode from its
     inter-update gap sketch.

   Meanwhile the sketch plane runs end to end: shard wizards accumulate
   subquery latencies in private mergeable sketches, the uplinks ship
   them to the root as Sketch_db frames, and the root serves merged
   deployment-wide p50/p95/p99 to a SMART-METRICS scrape, which the
   summary takes after reading the loops' counters (so the files include
   the scrape).  Every control decision is a metered counter bump plus
   a trace instant, so the run stays a function of the seed. *)
let control =
  {
    name = "control";
    seed = 7;
    world =
      (fun seed ->
        H.Testbed.switched_lan ~seed
          [
            ( "sw-a",
              "10.1.0.254",
              helenes "10.0.0" [ "root"; "cli" ]
              @ helenes "10.1.0" [ "s-a"; "mon-a"; "a1"; "a2" ] );
            ("sw-b", "10.2.0.254", helenes "10.2.0" [ "s-b"; "mon-b"; "b1"; "b2" ]);
          ]);
    config =
      {
        C.Simdriver.default_config with
        C.Simdriver.probe_interval = 1.0;
        transmit_interval = 0.5;
        wizard_staleness = 3.0;
        control_loops = true;
      };
    deploy =
      (fun ~config c ->
        C.Simdriver.deploy_federation ~config c ~root_host:"root"
          ~shards:
            [
              ("s-a", [ ("mon-a", [ "a1"; "a2" ]) ]);
              ("s-b", [ ("mon-b", [ "b1"; "b2" ]) ]);
            ]);
    (* crash/restart cycles long enough to expire the victims — with
       adaptive probes the sysmon tolerates the slowest cadence (2 s x 3
       missed intervals = 6 s), so each crash window is 7 s of silence —
       so flap scores accumulate and the quarantine loop has a
       distribution to tune from *)
    plan =
      List.concat
        (List.init 8 (fun i ->
             let t0 = 12.0 *. float_of_int i in
             let ha, hb = if i mod 2 = 0 then ("a1", "b1") else ("a2", "b2") in
             [
               { F.at = t0 +. 1.0; action = F.Crash_node ha };
               { F.at = t0 +. 1.0; action = F.Crash_node hb };
               { F.at = t0 +. 8.0; action = F.Restart_node ha };
               { F.at = t0 +. 8.0; action = F.Restart_node hb };
             ]));
    workload =
      Requests
        { client = "cli"; count = 180; every = 0.6; wanted = 2;
          requirement = "host_cpu_free > 0.1\n" };
    summary =
      (fun d tally ->
        let m = C.Simdriver.metrics d in
        let cv = M.counter_value m and gv = M.gauge_value m in
        let loops =
          [
            "";
            answered tally;
            Printf.sprintf "probe interval adaptations: %d (interval now %.3f s)"
              (cv "probe.interval_adaptations_total")
              (gv "probe.report_interval_seconds");
            Printf.sprintf "sysmon threshold adaptations: %d (threshold now %.0f)"
              (cv "sysmon.threshold_adaptations_total")
              (gv "sysmon.effective_flap_threshold");
            Printf.sprintf
              "wizard staleness adaptations: %d (threshold now %.3f s)"
              (cv "wizard.staleness_adaptations_total")
              (gv "wizard.staleness_threshold_seconds");
            Printf.sprintf "sketch batches received at root: %d (merges %d)"
              (cv "federation.sketches_received_total")
              (cv "federation.sketch_updates_total");
            Printf.sprintf
              "deployment-wide latency p50/p95/p99: %.6f / %.6f / %.6f s"
              (gv "federation.fed_latency_p50_s")
              (gv "federation.fed_latency_p95_s")
              (gv "federation.fed_latency_p99_s");
          ]
        in
        let scrape =
          match C.Simdriver.scrape_metrics d ~client:"cli" with
          | Ok dump ->
            ""
            :: "SMART-METRICS scrape of the root, federation quantiles:"
            :: List.filter_map
                 (fun l ->
                   if String.starts_with ~prefix:"federation.fed_latency_p" l
                   then Some ("  " ^ l)
                   else None)
                 (String.split_on_char '\n' dump)
          | Error e -> [ ""; "SMART-METRICS scrape failed: " ^ e ]
        in
        loops @ scrape @ same_bytes "control");
    files = seeded_files "control";
    markers =
      List.map
        (fun text -> ("control_metrics.txt", text))
        [
          "probe.interval_adaptations_total counter";
          "sysmon.threshold_adaptations_total counter";
          "wizard.staleness_adaptations_total counter";
          "federation.fed_latency_p99_s gauge";
        ];
    gate = Fun.const true;
  }

(* Causal tracing on the simulated ICPP-2005 testbed.  The full stack
   (probes on all 11 machines, monitors, transmitter, receiver and
   wizard on dalmatian) settles, then sagit issues one smart-socket
   request.  The deployment-wide tracelog records every component's
   spans with propagated contexts, so the run yields trace.json — the
   whole timeline as Chrome trace-event JSON (open in Perfetto or
   chrome://tracing), packet events merged in — and a summary holding
   the request's span tree (client -> wizard phases) and one
   report-pipeline tree (probe -> sysmon -> transmitter -> receiver ->
   commit), reconstructed purely from parent links. *)
let trace =
  {
    name = "trace";
    seed = 7;
    world =
      (fun seed ->
        H.Testbed.icpp2005 ~seed
          ~trace:(Smart_sim.Trace.create ~capacity:65536 ())
          ());
    config = C.Simdriver.default_config;
    deploy =
      (fun ~config c ->
        C.Simdriver.deploy ~config c ~monitor:"dalmatian"
          ~wizard_host:"dalmatian" ~servers:H.Testbed.machine_names);
    plan = [];
    workload =
      Traced_request
        { client = "sagit"; wanted = 2;
          requirement = "host_cpu_bogomips > 4000\norder_by = host_memory_free\n" };
    summary =
      (fun d tally ->
        let module T = Smart_util.Tracelog in
        let log = C.Simdriver.tracelog d in
        let entries = T.entries log in
        let tree_of name =
          match
            List.find_opt (fun (e : T.entry) -> String.equal e.T.name name) entries
          with
          | None -> Printf.sprintf "no %s span recorded" name
          | Some e -> T.render_tree log ~trace_id:e.T.trace_id
        in
        [
          (match tally with
          | Reply (Ok servers) -> "wizard answered: " ^ String.concat ", " servers
          | Reply (Error e) -> Fmt.str "request failed: %a" C.Client.pp_error e
          | Answered _ | Ledger _ -> invalid_arg "Scenario.trace: no reply");
          "";
          "=== the request's span tree ===";
          tree_of "client.request";
          "=== one report-pipeline span tree ===";
          tree_of "receiver.commit";
          Printf.sprintf
            "wrote trace.json (%d spans recorded, %d retained) — load it in \
             Perfetto / chrome://tracing"
            (T.total_recorded log) (List.length entries);
        ]);
    files = [ ("trace.json", C.Simdriver.trace_json) ];
    markers = [];
    gate = Fun.const true;
  }

let all = [ chaos; session_chaos; control; trace ]
