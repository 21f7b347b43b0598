(* examples/trace_demo.exe [seed]: the trace entry of the seeded
   scenarios (lib/experiments/scenario.ml), run by Scenario_runner. *)

let () = Scenario_runner.main "trace"
