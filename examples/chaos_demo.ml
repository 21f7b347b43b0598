(* Seeded chaos run on a two-group simulated deployment.

   Builds two server groups behind their own switches (mon-a/a1/a2 and
   mon-b/b1/b2), a wizard and a client, then arms a fault plan while the
   client fires 100 smart-socket requests:

   - 2% frame corruption on every transmitter stream (CRC trailers on,
     so the receiver detects the damage and resynchronises);
   - the wizard-feed transmitter host mon-a crashes mid-stream and
     restarts 13 virtual seconds later;
   - the other group's monitor mon-b is partitioned and healed, the
     outages overlapping long enough that the wizard's receiver feed
     goes fully quiet and degraded mode engages.

   Every run prints the fault plan, the request outcome, and the
   recovery counters, then writes:

   - chaos_metrics.txt — the full metrics registry in text exposition
     format;
   - chaos_trace.json  — the deployment's span ring as Chrome
     trace-event JSON.

   Both files are functions of the seed alone: two runs with the same
   seed are byte-identical (CI diffs them), a different seed reshuffles
   the chaos.

   Usage: chaos_demo [seed]   (default seed 3) *)

module C = Smart_core
module H = Smart_host
module F = Smart_sim.Faults

let build_world seed =
  let c = H.Cluster.create ~seed () in
  let spec name ip =
    { (H.Testbed.spec_of_name "helene") with H.Machine.name; ip }
  in
  let add name ip = H.Cluster.add_machine c (spec name ip) in
  let wiz = add "wiz" "10.0.0.1" in
  let cli = add "cli" "10.0.0.2" in
  let mon_a = add "mon-a" "10.1.0.1" in
  let a1 = add "a1" "10.1.0.2" in
  let a2 = add "a2" "10.1.0.3" in
  let mon_b = add "mon-b" "10.2.0.1" in
  let b1 = add "b1" "10.2.0.2" in
  let b2 = add "b2" "10.2.0.3" in
  let sw_a = H.Cluster.add_switch c ~name:"sw-a" ~ip:"10.1.0.254" in
  let sw_b = H.Cluster.add_switch c ~name:"sw-b" ~ip:"10.2.0.254" in
  let lan = H.Testbed.lan_conf in
  List.iter
    (fun n -> ignore (H.Cluster.link c ~a:n ~b:sw_a lan))
    [ wiz; cli; mon_a; a1; a2 ];
  List.iter
    (fun n -> ignore (H.Cluster.link c ~a:n ~b:sw_b lan))
    [ mon_b; b1; b2 ];
  ignore (H.Cluster.link c ~a:sw_a ~b:sw_b lan);
  let config =
    {
      C.Simdriver.default_config with
      C.Simdriver.transmit_interval = 0.5;
      frame_crc = true;
      wizard_staleness = 3.0;
    }
  in
  let d =
    C.Simdriver.deploy_groups ~config c ~wizard_host:"wiz"
      ~groups:[ ("mon-a", [ "a1"; "a2" ]); ("mon-b", [ "b1"; "b2" ]) ]
  in
  (c, d)

let () =
  let seed =
    if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 3
  in
  let c, d = build_world seed in
  Fmt.pr "settling the status plane (8 virtual seconds)...@.";
  C.Simdriver.settle ~duration:8.0 d;
  let base = H.Cluster.now c in
  let plan =
    [
      { F.at = base +. 0.1; action = F.Corrupt_frames 0.02 };
      { F.at = base +. 5.0; action = F.Crash_node "mon-a" };
      { F.at = base +. 8.0; action = F.Partition_host "mon-b" };
      { F.at = base +. 18.0; action = F.Restart_node "mon-a" };
      { F.at = base +. 22.0; action = F.Heal_host "mon-b" };
    ]
  in
  Fmt.pr "@.fault plan (virtual seconds after settling):@.";
  List.iter
    (fun { F.at; action } ->
      Fmt.pr "  +%5.1fs  %s@." (at -. base) (F.action_kind action))
    plan;
  C.Simdriver.install_faults d plan;
  let ok = ref 0 and total = 100 in
  for _ = 1 to total do
    C.Simdriver.settle ~duration:0.4 d;
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
  Fmt.pr "@.requests answered: %d/%d@." !ok total;
  Fmt.pr "frames corrupted in flight: %d@."
    (cv "faults.corrupted_messages_total");
  Fmt.pr "receiver resyncs / decode errors: %d / %d@."
    (cv "receiver.resyncs_total")
    (cv "receiver.decode_errors_total");
  Fmt.pr "transmitter send failures / resends: %d / %d@."
    (cv "transmitter.send_failures_total")
    (cv "transmitter.resends_total");
  Fmt.pr "degraded wizard replies: %d@." (cv "wizard.degraded_replies_total");
  Fmt.pr "servers mirrored after recovery: %d@."
    (C.Status_db.sys_count (C.Simdriver.db_wizard d));
  let dump path contents =
    let oc = open_out path in
    output_string oc contents;
    close_out oc
  in
  dump "chaos_metrics.txt" (Smart_util.Metrics.to_text m);
  dump "chaos_trace.json" (C.Simdriver.trace_json d);
  Fmt.pr
    "@.wrote chaos_metrics.txt and chaos_trace.json — same seed, same \
     bytes@."
