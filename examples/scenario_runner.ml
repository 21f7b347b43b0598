(* The runner behind the determinism demos: [main name] runs the entry
   [name] of Smart_experiments.Scenario.all at the seed on the command
   line (the entry's own by default), prints its fault plan and summary
   and writes its files, all functions of the seed alone.  It exits 1
   when a file lacks one of the entry's markers or the entry's gate
   fails, and 2 with the usage line when the seed is not an integer. *)

module S = Smart_experiments.Scenario
module F = Smart_sim.Faults

let main name =
  let s = List.find (fun (s : S.t) -> String.equal s.S.name name) S.all in
  let seed =
    match Sys.argv with
    | [| _ |] -> s.S.seed
    | [| _; arg |] when Option.is_some (int_of_string_opt arg) ->
      int_of_string arg
    | _ ->
      Fmt.epr "usage: %s_demo [seed]   (default seed %d)@." name s.S.seed;
      exit 2
  in
  Fmt.pr "settling the status plane (%g virtual seconds)...@." S.settle;
  (match s.S.plan with
  | [] -> ()
  | plan ->
    Fmt.pr "@.fault plan (virtual seconds after settling):@.";
    List.iter
      (fun { F.at; action } ->
        Fmt.pr "  +%5.1fs  %s@." at (F.action_kind action))
      plan);
  let o = S.run ~seed s in
  List.iter (Fmt.pr "%s@.") o.S.report;
  List.iter
    (fun (path, bytes) ->
      let oc = open_out path in
      output_string oc bytes;
      close_out oc)
    o.S.outputs;
  let missing = S.missing_markers s o in
  List.iter
    (fun (file, text) -> Fmt.epr "%s: marker %S missing@." file text)
    missing;
  let gate = s.S.gate o.S.tally in
  if not gate then
    Fmt.epr "%s gate failed@."
      (String.map (function '_' -> ' ' | c -> c) name);
  if missing <> [] || not gate then exit 1
