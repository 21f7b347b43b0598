(* Seeded session-plane chaos run (DESIGN.md §15).

   Builds four servers behind one switch plus a wizard, a monitor and a
   client, then drives six long-lived sessions through a fault plan
   aimed at the servers themselves:

   - s1 crashes mid-run and restarts 10 virtual seconds later;
   - s2 is partitioned and healed;

   so sessions bound to the dead servers must requeue their in-flight
   work, re-ask the wizard and migrate mid-session.  The run prints the
   session ledger — every session must survive, at least one migration
   must have happened, and nothing may be lost — then writes:

   - session_chaos_metrics.txt — the full metrics registry in text
     exposition format (the session.* and wizard.admission_* families
     included);
   - session_chaos_trace.json  — the span ring as Chrome trace-event
     JSON, the session.migrate spans parented on their origin
     client.request.

   Both files are functions of the seed alone: two runs with the same
   seed are byte-identical (CI diffs them).

   Usage: session_chaos_demo [seed]   (default seed 11) *)

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
  let mon = add "mon" "10.0.0.3" in
  let servers =
    List.init 4 (fun i ->
        add (Printf.sprintf "s%d" (i + 1)) (Printf.sprintf "10.0.1.%d" (i + 1)))
  in
  let sw = H.Cluster.add_switch c ~name:"sw" ~ip:"10.0.0.254" in
  List.iter
    (fun n -> ignore (H.Cluster.link c ~a:n ~b:sw H.Testbed.lan_conf))
    (wiz :: cli :: mon :: servers);
  let config =
    {
      C.Simdriver.default_config with
      C.Simdriver.transmit_interval = 0.5;
      frame_crc = true;
      wizard_staleness = 3.0;
    }
  in
  let d =
    C.Simdriver.deploy ~config c ~monitor:"mon" ~wizard_host:"wiz"
      ~servers:[ "s1"; "s2"; "s3"; "s4" ]
  in
  (c, d)

let () =
  let seed =
    if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 11
  in
  let c, d = build_world seed in
  Fmt.pr "settling the status plane (8 virtual seconds)...@.";
  C.Simdriver.settle ~duration:8.0 d;
  let base = H.Cluster.now c in
  let plan =
    [
      { F.at = base +. 4.3; action = F.Crash_node "s1" };
      { F.at = base +. 8.1; action = F.Partition_host "s2" };
      { F.at = base +. 14.2; action = F.Restart_node "s1" };
      { F.at = base +. 18.1; action = F.Heal_host "s2" };
    ]
  in
  Fmt.pr "@.fault plan (virtual seconds after settling):@.";
  List.iter
    (fun { F.at; action } ->
      Fmt.pr "  +%5.1fs  %s@." (at -. base) (F.action_kind action))
    plan;
  C.Simdriver.install_faults d plan;
  let r =
    C.Simdriver.run_sessions d
      ~clients:[ ("cli", 6) ]
      ~requirement:"host_cpu_free > 0.05\norder_by = host_memory_free\n"
      ~work_interval:0.5 ~duration:20.0
  in
  let m = C.Simdriver.metrics d in
  Fmt.pr "@.sessions survived: %d/%d@." r.C.Simdriver.survived
    r.C.Simdriver.sessions;
  Fmt.pr "mid-session migrations: %d@." r.C.Simdriver.migrations;
  Fmt.pr "work issued / completed / requeued / lost: %d / %d / %d / %d@."
    r.C.Simdriver.work_issued r.C.Simdriver.work_completed
    r.C.Simdriver.work_requeued r.C.Simdriver.work_lost;
  let dump path contents =
    let oc = open_out path in
    output_string oc contents;
    close_out oc
  in
  dump "session_chaos_metrics.txt" (Smart_util.Metrics.to_text m);
  dump "session_chaos_trace.json" (C.Simdriver.trace_json d);
  Fmt.pr
    "@.wrote session_chaos_metrics.txt and session_chaos_trace.json — same \
     seed, same bytes@.";
  if
    r.C.Simdriver.survived <> r.C.Simdriver.sessions
    || r.C.Simdriver.migrations < 1
    || r.C.Simdriver.work_lost <> 0
  then begin
    Fmt.epr "session chaos gate failed@.";
    exit 1
  end
