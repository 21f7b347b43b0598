(* examples/session_chaos_demo.exe [seed]: the session_chaos entry of the seeded
   scenarios (lib/experiments/scenario.ml), run by Scenario_runner. *)

let () = Scenario_runner.main "session_chaos"
