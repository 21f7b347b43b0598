(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md §4 for the index), then runs bechamel
   micro-benchmarks of the core primitives.

   Usage:
     dune exec bench/main.exe              # everything
     dune exec bench/main.exe -- tab5.3 fig5.2 micro   # selected sections
     dune exec bench/main.exe -- --list    # section ids *)

let section_header id title =
  Fmt.pr "@.======================================================@.";
  Fmt.pr "%s — %s@." id title;
  Fmt.pr "======================================================@.@."

(* ------------------------------------------------------------------ *)
(* Paper sections                                                      *)
(* ------------------------------------------------------------------ *)

let fig33_35 () =
  section_header "fig3.3-3.5" "RTT vs payload at MTU 1500/1000/500";
  List.iter Smart_experiments.Exp_rtt.print_sweep
    (Smart_experiments.Exp_rtt.mtu_sweeps ())

let fig36 () =
  section_header "fig3.6/tab3.2" "RTT sweeps on the six sample paths";
  List.iter Smart_experiments.Exp_rtt.print_sweep
    (Smart_experiments.Exp_rtt.sample_paths ())

let tab33 () =
  section_header "tab3.3/fig3.7" "bandwidth vs probe packet size";
  Smart_experiments.Exp_bw.print (Smart_experiments.Exp_bw.run ())

let tab34 () =
  section_header "tab3.4" "network monitor records";
  Smart_experiments.Exp_netmon.print (Smart_experiments.Exp_netmon.run ())

let tab41 () =
  section_header "tab4.1" "memory before/after SuperPI";
  Smart_experiments.Exp_superpi.print (Smart_experiments.Exp_superpi.run ())

let tab52 () =
  section_header "tab5.2" "per-component resource usage";
  Smart_experiments.Exp_resources.print
    (Smart_experiments.Exp_resources.run ())

let fig52 () =
  section_header "fig5.2" "matrix benchmark per machine";
  Smart_experiments.Exp_matmul.print_benchmark
    (Smart_experiments.Exp_matmul.benchmark ())

let matmul_tables () =
  section_header "tab5.3-5.6" "matrix multiplication: random vs smart";
  List.iter Smart_experiments.Exp_matmul.print_comparison
    (Smart_experiments.Exp_matmul.run_all ())

let fig53 () =
  section_header "fig5.3" "rshaper vs massd calibration";
  Smart_experiments.Exp_massd.print_calibration
    (Smart_experiments.Exp_massd.calibration ())

let massd_tables () =
  section_header "tab5.7-5.9" "massd: random vs smart";
  List.iter Smart_experiments.Exp_massd.print_table
    (Smart_experiments.Exp_massd.run_all ())

let wizard_throughput () =
  section_header "wizard" "wizard request throughput: cold vs cached";
  Bench_wizard.run ()

let federation_fanout () =
  section_header "federation" "federated fan-out: req/s and p99 vs shard count";
  Bench_federation.run ()

let session_plane () =
  section_header "sessions"
    "session plane: survival under churn, admission fairness under overload";
  Bench_sessions.run ()

let ablations () =
  section_header "ablation" "design-choice ablations (DESIGN.md §5)";
  Smart_experiments.Exp_ablation.print_init_speed
    (Smart_experiments.Exp_ablation.init_speed_ablation ());
  Smart_experiments.Exp_ablation.print_spacing
    (Smart_experiments.Exp_ablation.spacing_ablation ());
  Smart_experiments.Exp_ablation.print_modes
    (Smart_experiments.Exp_ablation.mode_ablation ());
  Smart_experiments.Exp_ablation.print_staleness
    (Smart_experiments.Exp_ablation.staleness_ablation ())

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks (bechamel)                                         *)
(* ------------------------------------------------------------------ *)

let sample_requirement =
  "host_system_load1 < 1\n\
   host_memory_used <= 250*1024*1024\n\
   host_cpu_free >= 0.9\n\
   host_network_tbytesps < 1024*1024\n\
   user_denied_host1 = 137.132.90.182\n\
   user_preferred_host1 = sagit.ddns.comp.nus.edu.sg\n"

let sample_report =
  {
    Smart_proto.Report.host = "helene";
    ip = "192.168.2.3";
    load1 = 0.42;
    load5 = 0.21;
    load15 = 0.08;
    cpu_user = 0.31;
    cpu_nice = 0.0;
    cpu_system = 0.04;
    cpu_free = 0.65;
    bogomips = 3394.76;
    mem_total = 256.0;
    mem_used = 120.5;
    mem_free = 135.5;
    mem_buffers = 18.0;
    mem_cached = 80.2;
    disk_rreq = 12.0;
    disk_rblocks = 96.0;
    disk_wreq = 5.5;
    disk_wblocks = 44.0;
    net_rbytes = 20480.0;
    net_rpackets = 22.0;
    net_tbytes = 10240.0;
    net_tpackets = 11.0;
  }

let micro () =
  section_header "micro" "bechamel micro-benchmarks of core primitives";
  let open Bechamel in
  let fast =
    match Smart_lang.Requirement.compile_fast sample_requirement with
    | Ok fast -> fast
    | Error _ -> assert false
  in
  let row =
    let db = Smart_core.Status_db.create () in
    Smart_core.Status_db.update_sys db
      { Smart_proto.Records.report = sample_report; updated_at = 1.0 };
    match
      Smart_core.Status_db.row_view db ~net_for:(fun _ -> None)
        ~host:sample_report.Smart_proto.Report.host
    with
    | Some view -> view.Smart_core.Status_db.cols
    | None -> assert false
  in
  let encoded_record =
    Smart_proto.Records.encode_sys Smart_proto.Endian.Little
      { Smart_proto.Records.report = sample_report; updated_at = 1.0 }
  in
  let report_string = Smart_proto.Report.to_string sample_report in
  let rng = Smart_util.Prng.create ~seed:99 in
  let m100 = Smart_apps.Matrix.random ~rng 100 in
  let flows_spec =
    Array.init 64 (fun i -> [ i mod 12; (i + 3) mod 12; (i + 7) mod 12 ])
  in
  let capacities = Array.make 12 12.5e6 in
  let tests =
    Test.make_grouped ~name:"smart"
      [
        Test.make ~name:"lang.compile" (Staged.stage (fun () ->
            Smart_lang.Requirement.compile sample_requirement));
        Test.make ~name:"lang.bytecode_run" (Staged.stage (fun () ->
            Smart_lang.Bytecode.run fast.Smart_lang.Requirement.prog
              fast.Smart_lang.Requirement.state row ~server:0));
        Test.make ~name:"proto.report_parse" (Staged.stage (fun () ->
            Smart_proto.Report.of_string report_string));
        Test.make ~name:"proto.record_decode" (Staged.stage (fun () ->
            Smart_proto.Records.decode_sys Smart_proto.Endian.Little
              encoded_record ~pos:0));
        Test.make ~name:"util.heap_1k" (Staged.stage (fun () ->
            let h = Smart_util.Heap.create () in
            for i = 0 to 999 do
              Smart_util.Heap.push h ~key:(float_of_int ((i * 7919) mod 997)) i
            done;
            while not (Smart_util.Heap.is_empty h) do
              ignore (Smart_util.Heap.pop h)
            done));
        Test.make ~name:"net.fairshare_64x12" (Staged.stage (fun () ->
            Smart_net.Fairshare.rates ~capacities ~flows:flows_spec));
        Test.make ~name:"apps.matmul_100" (Staged.stage (fun () ->
            Smart_apps.Matrix.multiply m100 m100));
        Test.make ~name:"sim.engine_1k_events" (Staged.stage (fun () ->
            let e = Smart_sim.Engine.create () in
            for i = 0 to 999 do
              ignore
                (Smart_sim.Engine.schedule_at e
                   ~time:(float_of_int ((i * 31) mod 101))
                   (fun () -> ()))
            done;
            Smart_sim.Engine.run e ~until:200.0));
      ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] tests in
  let results =
    Analyze.all
      (Analyze.ols ~r_square:true ~bootstrap:0
         ~predictors:[| Measure.run |])
      Toolkit.Instance.monotonic_clock raw
  in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  let tab =
    Smart_util.Tabular.create ~title:"micro-benchmarks"
      ~header:[ "benchmark"; "time/run"; "r²" ]
  in
  List.iter
    (fun (name, ols) ->
      let estimate =
        match Analyze.OLS.estimates ols with
        | Some (e :: _) -> Fmt.str "%.1f ns" e
        | Some [] | None -> "n/a"
      in
      let r2 =
        match Analyze.OLS.r_square ols with
        | Some r -> Fmt.str "%.4f" r
        | None -> "-"
      in
      Smart_util.Tabular.add_row tab [ name; estimate; r2 ])
    (List.sort compare rows);
  Smart_util.Tabular.print tab

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let sections : (string * string * (unit -> unit)) list =
  [
    ("fig3.3-3.5", "RTT vs payload at three MTUs (sagit->suna)", fig33_35);
    ("fig3.6", "RTT sweeps on the six Table 3.2 paths", fig36);
    ("tab3.3", "bandwidth vs probe size + pipechar/pathload", tab33);
    ("tab3.4", "network monitor mesh records", tab34);
    ("tab4.1", "meminfo before/after SuperPI", tab41);
    ("tab5.2", "per-component resource usage", tab52);
    ("fig5.2", "per-machine matrix benchmark", fig52);
    ("tab5.3-5.6", "matmul random vs smart (4 experiments)", matmul_tables);
    ("fig5.3", "rshaper vs massd calibration", fig53);
    ("tab5.7-5.9", "massd random vs smart (3 experiments)", massd_tables);
    ("ablation", "design-choice ablations", ablations);
    ("wizard", "wizard request throughput, cold vs cached", wizard_throughput);
    ("federation", "federated fan-out, req/s and p99 vs shards", federation_fanout);
    ("sessions", "session plane: churn survival + admission fairness", session_plane);
    ("micro", "bechamel micro-benchmarks", micro);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  if List.mem "--list" args then
    List.iter (fun (id, doc, _) -> Fmt.pr "%-12s %s@." id doc) sections
  else begin
    let wanted = List.filter (fun a -> a <> "--list") args in
    let chosen =
      if wanted = [] then sections
      else
        List.filter
          (fun (id, _, _) ->
            List.exists
              (fun w -> id = w || (String.length w < String.length id
                                   && String.sub id 0 (String.length w) = w))
              wanted)
          sections
    in
    if chosen = [] then begin
      Fmt.epr "no matching sections; try --list@.";
      exit 1
    end;
    let t0 = Unix.gettimeofday () in
    List.iter
      (fun (id, _, f) ->
        let s0 = Unix.gettimeofday () in
        f ();
        Fmt.pr "[%s done in %.1f s wall]@." id (Unix.gettimeofday () -. s0))
      chosen;
    Fmt.pr "@.all sections done in %.1f s wall@." (Unix.gettimeofday () -. t0)
  end
