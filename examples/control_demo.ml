(* Seeded closed-loop control run on a federated deployment (DESIGN.md
   §14): all three adaptive control loops are armed at once on a
   two-shard federation while a fault plan makes servers flap and a
   client keeps requesting.

   - adaptive probes: each probe self-schedules on its effective report
     interval, derived from the spread of its load1 sketch;
   - adaptive quarantine: each sysmon tunes its flap threshold from the
     fleet's flap-score sketch;
   - adaptive staleness: each wizard derives degraded mode from its
     inter-update gap sketch.

   Meanwhile the sketch plane runs end to end: shard wizards accumulate
   subquery latencies in private mergeable sketches, the uplinks ship
   them to the root as Sketch_db frames, and the root serves merged
   deployment-wide p50/p95/p99 to a SMART-METRICS scrape.

   Every control decision is a metered counter bump plus a trace
   instant, so the run stays a function of the seed alone: two runs with
   the same seed write byte-identical control_metrics.txt and
   control_trace.json (CI diffs them).

   Usage: control_demo [seed]   (default seed 7) *)

module C = Smart_core
module H = Smart_host
module F = Smart_sim.Faults

let build_world seed =
  let c = H.Cluster.create ~seed () in
  let spec name ip =
    { (H.Testbed.spec_of_name "helene") with H.Machine.name; ip }
  in
  let add name ip = H.Cluster.add_machine c (spec name ip) in
  let root = add "root" "10.0.0.1" in
  let cli = add "cli" "10.0.0.2" in
  let shard_a = add "s-a" "10.1.0.1" in
  let mon_a = add "mon-a" "10.1.0.2" in
  let a1 = add "a1" "10.1.0.3" in
  let a2 = add "a2" "10.1.0.4" in
  let shard_b = add "s-b" "10.2.0.1" in
  let mon_b = add "mon-b" "10.2.0.2" in
  let b1 = add "b1" "10.2.0.3" in
  let b2 = add "b2" "10.2.0.4" in
  let sw_a = H.Cluster.add_switch c ~name:"sw-a" ~ip:"10.1.0.254" in
  let sw_b = H.Cluster.add_switch c ~name:"sw-b" ~ip:"10.2.0.254" in
  let lan = H.Testbed.lan_conf in
  List.iter
    (fun n -> ignore (H.Cluster.link c ~a:n ~b:sw_a lan))
    [ root; cli; shard_a; mon_a; a1; a2 ];
  List.iter
    (fun n -> ignore (H.Cluster.link c ~a:n ~b:sw_b lan))
    [ shard_b; mon_b; b1; b2 ];
  ignore (H.Cluster.link c ~a:sw_a ~b:sw_b lan);
  let config =
    {
      C.Simdriver.default_config with
      C.Simdriver.probe_interval = 1.0;
      transmit_interval = 0.5;
      wizard_staleness = 3.0;
      adaptive_probes = true;
      adaptive_quarantine = true;
      adaptive_staleness = true;
    }
  in
  let d =
    C.Simdriver.deploy_federation ~config c ~root_host:"root"
      ~shards:
        [
          ("s-a", [ ("mon-a", [ "a1"; "a2" ]) ]);
          ("s-b", [ ("mon-b", [ "b1"; "b2" ]) ]);
        ]
  in
  (c, d)

let () =
  let seed =
    if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 7
  in
  let c, d = build_world seed in
  Fmt.pr "settling the status plane (8 virtual seconds)...@.";
  C.Simdriver.settle ~duration:8.0 d;
  let base = H.Cluster.now c in
  (* crash/restart cycles long enough to expire the victims — with
     adaptive probes the sysmon tolerates the slowest cadence (2 s x 3
     missed intervals = 6 s), so each crash window is 7 s of silence —
     so flap scores accumulate and the quarantine loop has a
     distribution to tune from *)
  let plan =
    List.concat
      (List.mapi
         (fun i (ha, hb) ->
           let t0 = base +. (12.0 *. float_of_int i) in
           [
             { F.at = t0 +. 1.0; action = F.Crash_node ha };
             { F.at = t0 +. 1.0; action = F.Crash_node hb };
             { F.at = t0 +. 8.0; action = F.Restart_node ha };
             { F.at = t0 +. 8.0; action = F.Restart_node hb };
           ])
         [
           ("a1", "b1"); ("a2", "b2"); ("a1", "b1"); ("a2", "b2");
           ("a1", "b1"); ("a2", "b2"); ("a1", "b1"); ("a2", "b2");
         ])
  in
  Fmt.pr "@.fault plan (virtual seconds after settling):@.";
  List.iter
    (fun { F.at; action } ->
      Fmt.pr "  +%5.1fs  %s@." (at -. base) (F.action_kind action))
    plan;
  C.Simdriver.install_faults d plan;
  let ok = ref 0 and total = 180 in
  for _ = 1 to total do
    C.Simdriver.settle ~duration:0.6 d;
    match
      C.Simdriver.request d ~client:"cli" ~wanted:2
        ~requirement:"host_cpu_free > 0.1\n"
    with
    | Ok _ -> incr ok
    | Error _ -> ()
  done;
  C.Simdriver.settle ~duration:10.0 d;
  let m = C.Simdriver.metrics d in
  let cv name = Smart_util.Metrics.counter_value m name in
  let gv name = Smart_util.Metrics.gauge_value m name in
  Fmt.pr "@.requests answered: %d/%d@." !ok total;
  Fmt.pr "probe interval adaptations: %d (interval now %.3f s)@."
    (cv "probe.interval_adaptations_total")
    (gv "probe.report_interval_seconds");
  Fmt.pr "sysmon threshold adaptations: %d (threshold now %.0f)@."
    (cv "sysmon.threshold_adaptations_total")
    (gv "sysmon.effective_flap_threshold");
  Fmt.pr "wizard staleness adaptations: %d (threshold now %.3f s)@."
    (cv "wizard.staleness_adaptations_total")
    (gv "wizard.staleness_threshold_seconds");
  Fmt.pr "sketch batches received at root: %d (merges %d)@."
    (cv "federation.sketches_received_total")
    (cv "federation.sketch_updates_total");
  Fmt.pr "deployment-wide latency p50/p95/p99: %.6f / %.6f / %.6f s@."
    (gv "federation.fed_latency_p50_s")
    (gv "federation.fed_latency_p95_s")
    (gv "federation.fed_latency_p99_s");
  (match C.Simdriver.scrape_metrics d ~client:"cli" with
  | Ok dump ->
    let lines = String.split_on_char '\n' dump in
    let fed =
      List.filter
        (fun l ->
          String.length l >= 24
          && String.equal (String.sub l 0 24) "federation.fed_latency_p")
        lines
    in
    Fmt.pr "@.SMART-METRICS scrape of the root, federation quantiles:@.";
    List.iter (fun l -> Fmt.pr "  %s@." l) fed
  | Error e -> Fmt.pr "@.SMART-METRICS scrape failed: %s@." e);
  let dump path contents =
    let oc = open_out path in
    output_string oc contents;
    close_out oc
  in
  dump "control_metrics.txt" (Smart_util.Metrics.to_text m);
  dump "control_trace.json" (C.Simdriver.trace_json d);
  Fmt.pr
    "@.wrote control_metrics.txt and control_trace.json — same seed, same \
     bytes@."
