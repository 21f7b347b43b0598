(* Passes Fx_knob.tested's optional parameter, which no root passes: the
   knob rule warns that only tests set it. *)
let () = ignore (Lint_fixtures.Fx_knob.tested ~trim:5 ())
