(* Helper for the measurement drivers: advance the simulation in small
   increments until a predicate holds or the deadline passes.  Background
   periodic processes keep the event queue non-empty, so "run until idle"
   is never an option. *)

let tick = 0.005

let run_until engine ~deadline pred =
  let rec loop () =
    if pred () then true
    else begin
      let now = Smart_sim.Engine.now engine in
      if now >= deadline then pred ()
      else begin
        Smart_sim.Engine.run engine ~until:(Float.min deadline (now +. tick));
        loop ()
      end
    end
  in
  loop ()
