(* examples/chaos_demo.exe [seed]: the chaos entry of the seeded
   scenarios (lib/experiments/scenario.ml), run by Scenario_runner. *)

let () = Scenario_runner.main "chaos"
