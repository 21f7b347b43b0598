(* Shares its module name with the fixture it calls, as
   test/oracle/selection.ml shares lib/core/selection.ml's: the reach
   rule keys modules by library, so this still counts as another module
   naming Fx_reach.tested, and as a test building Fx_reach.Tested. *)
let () =
  ignore (Lint_fixtures.Fx_reach.tested ());
  ignore Lint_fixtures.Fx_reach.Tested
