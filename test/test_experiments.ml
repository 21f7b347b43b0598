(* Shape tests over the paper-reproduction experiments: the assertions
   encode "who wins and where the crossovers fall", not absolute
   numbers — the contract DESIGN.md §4 states.  Scaled-down parameters
   keep the suite fast; bench/main.exe runs the full versions. *)

module E = Smart_experiments

(* ------------------------------------------------------------------ *)
(* Fig 3.3-3.5                                                          *)
(* ------------------------------------------------------------------ *)

let test_mtu_sweeps_shape () =
  let sweeps = E.Exp_rtt.mtu_sweeps ~mtus:[ 1500; 1000 ] ~max_size:4000 () in
  Alcotest.(check int) "one report per MTU" 2 (List.length sweeps);
  List.iter
    (fun (r : E.Exp_rtt.sweep_report) ->
      match r.E.Exp_rtt.knee with
      | Some k ->
        Alcotest.(check bool) "knee significant" true
          k.Smart_measure.Rtt_probe.significant;
        Alcotest.(check bool) "knee tracks MTU" true
          (Float.abs
             (k.Smart_measure.Rtt_probe.knee_bytes
             -. float_of_int r.E.Exp_rtt.mtu)
          < 200.0)
      | None -> Alcotest.fail "knee not found")
    sweeps

let test_sample_paths_table32 () =
  let reports = E.Exp_rtt.sample_paths ~max_size:3000 ~step:100 () in
  Alcotest.(check int) "six paths" 6 (List.length reports);
  (* WAN paths a/b have much larger pings than LAN paths c/d/e/f *)
  let ping label =
    let r =
      List.find
        (fun (r : E.Exp_rtt.sweep_report) ->
          String.length r.E.Exp_rtt.label > 0 && r.E.Exp_rtt.label.[0] = label)
        reports
    in
    match r.E.Exp_rtt.ping with
    | Some p -> p
    | None -> Alcotest.failf "ping lost on %c" label
  in
  Alcotest.(check bool) "b (CMU) slowest" true (ping 'b' > ping 'a');
  Alcotest.(check bool) "a (APAN) >> c (LAN)" true (ping 'a' > 100.0 *. ping 'c');
  Alcotest.(check bool) "f (loopback) fastest" true (ping 'f' < ping 'e')

(* ------------------------------------------------------------------ *)
(* Table 3.3                                                            *)
(* ------------------------------------------------------------------ *)

let test_bw_table_shape () =
  let r = E.Exp_bw.run ~trials:5 () in
  Alcotest.(check int) "seven groups" 7 (List.length r.E.Exp_bw.groups);
  let avg label =
    (List.find (fun g -> g.E.Exp_bw.label = label) r.E.Exp_bw.groups)
      .E.Exp_bw.avg_bw
  in
  (* sub-MTU groups under-estimate by the Speed_init effect *)
  List.iter
    (fun sub ->
      List.iter
        (fun super ->
          Alcotest.(check bool)
            (Printf.sprintf "%s < %s" sub super)
            true
            (avg sub < 0.5 *. avg super))
        [ "2000~4000"; "4000~6000"; "2000~6000"; "1600~2900" ])
    [ "100~500"; "500~1000"; "100~1000" ];
  (* the thesis's optimal pair lands near the truth *)
  Alcotest.(check bool) "1600~2900 near 95 Mbps" true
    (avg "1600~2900" > 75.0 && avg "1600~2900" < 120.0);
  (* baselines agree *)
  (match r.E.Exp_bw.pipechar_bw with
  | Some bw -> Alcotest.(check bool) "pipechar near truth" true (bw > 70.0 && bw < 130.0)
  | None -> Alcotest.fail "pipechar failed");
  Alcotest.(check bool) "pathload brackets truth" true
    (r.E.Exp_bw.pathload_low < 110.0 && r.E.Exp_bw.pathload_high > 70.0)

(* ------------------------------------------------------------------ *)
(* Table 3.4                                                            *)
(* ------------------------------------------------------------------ *)

let test_netmon_mesh () =
  let r = E.Exp_netmon.run ~trials:3 () in
  Alcotest.(check int) "three monitors" 3 (List.length r.E.Exp_netmon.records);
  List.iter
    (fun (rec_ : Smart_proto.Records.net_record) ->
      Alcotest.(check int) "two peers each" 2
        (List.length rec_.Smart_proto.Records.entries))
    r.E.Exp_netmon.records;
  (* the 1<->3 link (20 Mbps, 11 ms) must read slower and further than
     the 2<->3 link (80 Mbps, 2 ms) from monitor 3's perspective *)
  let m3 =
    List.find
      (fun (rec_ : Smart_proto.Records.net_record) ->
        rec_.Smart_proto.Records.monitor = "netmon-3")
      r.E.Exp_netmon.records
  in
  let entry peer =
    List.find
      (fun (e : Smart_proto.Records.net_entry) ->
        e.Smart_proto.Records.peer = peer)
      m3.Smart_proto.Records.entries
  in
  Alcotest.(check bool) "bw ordering" true
    ((entry "netmon-1").Smart_proto.Records.bandwidth
    < (entry "netmon-2").Smart_proto.Records.bandwidth);
  Alcotest.(check bool) "delay ordering" true
    ((entry "netmon-1").Smart_proto.Records.delay
    > (entry "netmon-2").Smart_proto.Records.delay)

(* ------------------------------------------------------------------ *)
(* Table 4.1                                                            *)
(* ------------------------------------------------------------------ *)

let test_superpi_table () =
  let r = E.Exp_superpi.run () in
  let before = r.E.Exp_superpi.before and after = r.E.Exp_superpi.after in
  Alcotest.(check bool) "used grows" true
    (after.Smart_host.Procfs.used > before.Smart_host.Procfs.used);
  Alcotest.(check bool) "free collapses" true
    (after.Smart_host.Procfs.free < before.Smart_host.Procfs.free / 10);
  Alcotest.(check bool) "buffers shrink" true
    (after.Smart_host.Procfs.buffers < before.Smart_host.Procfs.buffers);
  Alcotest.(check bool) "cache grows" true
    (after.Smart_host.Procfs.cached > before.Smart_host.Procfs.cached)

(* ------------------------------------------------------------------ *)
(* Table 5.2                                                            *)
(* ------------------------------------------------------------------ *)

let test_resource_table () =
  let r = E.Exp_resources.run ~duration:20.0 () in
  Alcotest.(check int) "seven components" 7 (List.length r.E.Exp_resources.rows);
  let row name =
    List.find (fun row -> row.E.Exp_resources.component = name)
      r.E.Exp_resources.rows
  in
  (* the monitor receives all probe traffic: ~11x a single probe *)
  let probe = row "System Probe (each)" in
  let monitor = row "System Monitor" in
  Alcotest.(check bool) "monitor bw ~ 11x probe bw" true
    (monitor.E.Exp_resources.bandwidth_kBps
    > 8.0 *. probe.E.Exp_resources.bandwidth_kBps);
  (* receiver and wizard keep the record set resident *)
  Alcotest.(check bool) "wizard memory > probe memory" true
    ((row "Wizard").E.Exp_resources.memory_bytes
    > probe.E.Exp_resources.memory_bytes);
  Alcotest.(check bool) "every bandwidth sane" true
    (List.for_all
       (fun row ->
         row.E.Exp_resources.bandwidth_kBps >= 0.0
         && row.E.Exp_resources.bandwidth_kBps < 100.0)
       r.E.Exp_resources.rows)

(* ------------------------------------------------------------------ *)
(* Fig 5.2 + Tables 5.3-5.6 (one representative, scaled down)           *)
(* ------------------------------------------------------------------ *)

let test_benchmark_fig52 () =
  let rows = E.Exp_matmul.benchmark ~n:1500 () in
  Alcotest.(check int) "11 machines" 11 (List.length rows);
  let time host =
    (List.find (fun r -> r.E.Exp_matmul.host = host) rows)
      .E.Exp_matmul.seconds
  in
  (* the Fig 5.2 inversion: P3-866 beats all the P4-1.6..1.8 machines *)
  Alcotest.(check bool) "sagit (P3) < helene (P4 1.7)" true
    (time "sagit" < time "helene");
  Alcotest.(check bool) "dalmatian fastest" true
    (List.for_all (fun r -> time "dalmatian" <= r.E.Exp_matmul.seconds) rows)

let matmul_runs = lazy (E.Exp_matmul.run_all ())

let test_matmul_table53 () =
  (* Table 5.3 with the real requirement text, full pipeline *)
  let c = List.hd (Lazy.force matmul_runs) in
  Alcotest.(check (list string)) "smart picks the P4-2.4 pair"
    [ "dalmatian"; "dione" ]
    (List.sort compare c.E.Exp_matmul.smart_servers);
  Alcotest.(check bool) "smart faster than random" true
    (c.E.Exp_matmul.smart_time < c.E.Exp_matmul.random_time);
  let improvement =
    100.0 *. (1.0 -. (c.E.Exp_matmul.smart_time /. c.E.Exp_matmul.random_time))
  in
  Alcotest.(check bool) "improvement within the paper's ballpark" true
    (improvement > 10.0 && improvement < 60.0)

let test_matmul_table56_workload () =
  (* Table 5.6: the smart set avoids the three SuperPI-loaded servers *)
  let c = List.nth (Lazy.force matmul_runs) 3 in
  List.iter
    (fun busy ->
      Alcotest.(check bool)
        (busy ^ " avoided")
        false
        (List.mem busy c.E.Exp_matmul.smart_servers))
    c.E.Exp_matmul.workloads;
  Alcotest.(check int) "still found four" 4
    (List.length c.E.Exp_matmul.smart_servers);
  Alcotest.(check bool) "smart faster under load" true
    (c.E.Exp_matmul.smart_time < c.E.Exp_matmul.random_time)

(* ------------------------------------------------------------------ *)
(* Fig 5.3 + Tables 5.7-5.9 (scaled down)                               *)
(* ------------------------------------------------------------------ *)

let test_calibration_fig53 () =
  let rows = E.Exp_massd.calibration ~samples:4 () in
  List.iter
    (fun (s : E.Exp_massd.calibration_sample) ->
      let ratio = s.E.Exp_massd.achieved_kBps /. s.E.Exp_massd.set_kBps in
      Alcotest.(check bool)
        (Printf.sprintf "achieved %.0f tracks set %.0f"
           s.E.Exp_massd.achieved_kBps s.E.Exp_massd.set_kBps)
        true
        (ratio > 0.85 && ratio < 1.1))
    rows

let massd_tables = lazy (E.Exp_massd.run_all ~data_kb:10000 ())

let test_massd_table57 () =
  let t = List.hd (Lazy.force massd_tables) in
  match t.E.Exp_massd.rows with
  | [ random; smart ] ->
    Alcotest.(check string) "smart row last" "Smart" smart.E.Exp_massd.label;
    (* the smart server comes from the fast group *)
    List.iter
      (fun s ->
        Alcotest.(check bool) "smart from group 1" true
          (List.mem s [ "mimas"; "telesto"; "lhost" ]))
      smart.E.Exp_massd.servers;
    Alcotest.(check bool) "smart ~5x faster (paper: 860/170)" true
      (smart.E.Exp_massd.kBps > 3.0 *. random.E.Exp_massd.kBps)
  | _ -> Alcotest.fail "expected two rows"

let test_massd_table59_monotone () =
  (* Table 5.9's staircase: more fast servers, more throughput *)
  let t = List.nth (Lazy.force massd_tables) 2 in
  let rates = List.map (fun r -> r.E.Exp_massd.kBps) t.E.Exp_massd.rows in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a < b && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "0 < 1 < 2 < 3 fast servers" true (monotone rates)

(* ------------------------------------------------------------------ *)
(* Ablations                                                            *)
(* ------------------------------------------------------------------ *)

let test_ablation_init_speed () =
  match E.Exp_ablation.init_speed_ablation ~trials:4 () with
  | [ physical; virtual_ ] ->
    Alcotest.(check bool) "physical NIC has the knee" true
      physical.E.Exp_ablation.knee_significant;
    Alcotest.(check bool) "sub-MTU dragged down on physical" true
      (physical.E.Exp_ablation.sub_mtu_bw
      < 0.5 *. physical.E.Exp_ablation.super_mtu_bw);
    Alcotest.(check bool) "virtual interface recovers most of it" true
      (virtual_.E.Exp_ablation.sub_mtu_bw
      > 2.0 *. physical.E.Exp_ablation.sub_mtu_bw)
  | _ -> Alcotest.fail "expected two rows"

let test_ablation_spacing () =
  match E.Exp_ablation.spacing_ablation () with
  | [ b2b; spaced ] ->
    (* spaced probes read the shaped rate; back-to-back ones misread *)
    Alcotest.(check bool) "spaced within 15% of truth" true
      (Float.abs (spaced.E.Exp_ablation.measured_mbps -. 2.0) < 0.3);
    Alcotest.(check bool) "back-to-back further from truth" true
      (Float.abs (b2b.E.Exp_ablation.measured_mbps -. 2.0)
      > Float.abs (spaced.E.Exp_ablation.measured_mbps -. 2.0))
  | _ -> Alcotest.fail "expected two rows"

let test_ablation_modes () =
  match E.Exp_ablation.mode_ablation () with
  | [ central; distributed ] ->
    Alcotest.(check bool) "push pays standing bytes" true
      (central.E.Exp_ablation.standing_kBps
      > 4.0 *. distributed.E.Exp_ablation.standing_kBps);
    Alcotest.(check bool) "pull pays request latency" true
      (distributed.E.Exp_ablation.request_latency_ms
      > 2.0 *. central.E.Exp_ablation.request_latency_ms)
  | _ -> Alcotest.fail "expected two rows"

let test_ablation_staleness () =
  let rows = E.Exp_ablation.staleness_ablation () in
  Alcotest.(check int) "five thresholds" 5 (List.length rows);
  let row k =
    List.find (fun r -> r.E.Exp_ablation.missed_intervals = k) rows
  in
  (* detection latency grows with the threshold *)
  Alcotest.(check bool) "latency ordering" true
    ((row 1).E.Exp_ablation.detection_s < (row 3).E.Exp_ablation.detection_s
    && (row 3).E.Exp_ablation.detection_s < (row 10).E.Exp_ablation.detection_s);
  (* aggressive expiry is trigger-happy under loss; 3 intervals is safe *)
  Alcotest.(check bool) "threshold 1 false-fires" true
    ((row 1).E.Exp_ablation.false_expiries > 0);
  Alcotest.(check int) "threshold 3 quiet under 15% loss" 0
    (row 3).E.Exp_ablation.false_expiries;
  (* everyone eventually detects the real failure *)
  List.iter
    (fun r ->
      Alcotest.(check bool) "detected" true
        (r.E.Exp_ablation.detection_s < Float.infinity))
    rows

(* ------------------------------------------------------------------ *)
(* Seeded scenarios                                                     *)
(* ------------------------------------------------------------------ *)

(* Every entry of the table, run twice at its own seed: each file it
   writes comes out byte-identical, carries the entry's markers, and the
   entry's gate holds. *)
let test_scenarios_replay () =
  let module S = E.Scenario in
  List.iter
    (fun (s : S.t) ->
      let first = S.run s and second = S.run s in
      Alcotest.(check (list string))
        (s.S.name ^ ": files") (List.map fst s.S.files)
        (List.map fst first.S.outputs);
      List.iter2
        (fun (file, a) (_, b) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s byte-identical" s.S.name file)
            true (String.equal a b))
        first.S.outputs second.S.outputs;
      Alcotest.(check (list string))
        (s.S.name ^ ": summary replays") first.S.report second.S.report;
      Alcotest.(check (list (pair string string)))
        (s.S.name ^ ": no marker missing") []
        (S.missing_markers s first);
      Alcotest.(check bool) (s.S.name ^ ": gate holds") true
        (s.S.gate first.S.tally))
    S.all

let () =
  Alcotest.run "smart_experiments"
    [
      ( "ch3",
        [
          Alcotest.test_case "Figs 3.3-3.5 MTU knees" `Slow
            test_mtu_sweeps_shape;
          Alcotest.test_case "Fig 3.6 sample paths" `Slow
            test_sample_paths_table32;
          Alcotest.test_case "Table 3.3 probe sizes" `Slow test_bw_table_shape;
          Alcotest.test_case "Table 3.4 monitor mesh" `Quick test_netmon_mesh;
        ] );
      ( "ch4",
        [ Alcotest.test_case "Table 4.1 SuperPI" `Quick test_superpi_table ] );
      ( "ch5",
        [
          Alcotest.test_case "Table 5.2 resources" `Slow test_resource_table;
          Alcotest.test_case "Fig 5.2 benchmark" `Quick test_benchmark_fig52;
          Alcotest.test_case "Table 5.3 matmul 2v2" `Slow test_matmul_table53;
          Alcotest.test_case "Table 5.6 workload" `Slow
            test_matmul_table56_workload;
          Alcotest.test_case "Fig 5.3 calibration" `Slow test_calibration_fig53;
          Alcotest.test_case "Table 5.7 massd 1v1" `Slow test_massd_table57;
          Alcotest.test_case "Table 5.9 staircase" `Slow
            test_massd_table59_monotone;
        ] );
      ( "ablations",
        [
          Alcotest.test_case "Speed_init" `Slow test_ablation_init_speed;
          Alcotest.test_case "probe spacing" `Quick test_ablation_spacing;
          Alcotest.test_case "push vs pull" `Slow test_ablation_modes;
          Alcotest.test_case "staleness threshold" `Quick
            test_ablation_staleness;
        ] );
      ( "scenarios",
        [
          Alcotest.test_case "every entry replays byte-identically" `Quick
            test_scenarios_replay;
        ] );
    ]
