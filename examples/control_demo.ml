(* examples/control_demo.exe [seed]: the control entry of the seeded
   scenarios (lib/experiments/scenario.ml), run by Scenario_runner. *)

let () = Scenario_runner.main "control"
