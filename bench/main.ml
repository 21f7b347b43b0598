(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md §4 for the index), the design-choice
   ablations, the wizard's request throughput and allocation, and the
   session plane.

   Usage:
     dune exec bench/main.exe              # everything
     dune exec bench/main.exe -- tab5.3 fig5.2   # selected sections
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
    ("sessions", "session plane: churn survival + admission fairness", session_plane);
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
