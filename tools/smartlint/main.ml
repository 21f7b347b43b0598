(* smartlint CLI.

   Run from the repository root after a build (the analyzer reads the
   .cmt typed trees dune leaves under _build/default):

       dune build && dune exec tools/smartlint/main.exe -- --root .

   Exit status is non-zero when any non-allowlisted error remains; warns
   never gate (except unused allowlist entries under --strict).  --json
   replaces the text report with a JSON document on stdout; --json-out
   writes the same document to a file alongside the text report.  See
   ANALYSIS.md for the rule catalogue. *)

let realnet_dir = "lib/realnet"

let default_config root =
  let ( / ) = Filename.concat in
  let lib_dirs =
    match Sys.readdir (root / "lib") with
    | exception Sys_error _ -> []
    | entries ->
      Array.to_list entries
      |> List.filter (fun d -> Sys.is_directory (root / "lib" / d))
      |> List.map (fun d -> "lib" / d)
      |> List.sort String.compare
  in
  {
    Smartlint.Driver.root;
    build_root = root / "_build" / "default";
    lib_dirs;
    sans_io_dirs =
      List.filter (fun d -> not (String.equal d realnet_dir)) lib_dirs;
    proto_dirs = [ "lib/proto" ];
    program_dirs = [ "test/lint_fixtures/programs" ];
    unchecked_files = [ "lib/lang/bytecode.ml" ];
    root_dirs = [ "bin"; "bench"; "perfbench"; "examples"; "tools" ];
    test_dirs = [ "test" ];
    allow_path = "lint.allow";
    only = [];
    skip = [];
    strict = false;
  }

let split_commas s =
  String.split_on_char ',' s |> List.map String.trim
  |> List.filter (fun r -> not (String.equal r ""))

let () =
  let root = ref "." in
  let allow = ref None in
  let only = ref [] in
  let skip = ref [] in
  let quiet = ref false in
  let json = ref false in
  let json_out = ref None in
  let strict = ref false in
  let spec =
    [
      ("--root", Arg.Set_string root, "DIR repository root (default: .)");
      ( "--allow",
        Arg.String (fun s -> allow := Some s),
        "FILE allowlist file, relative to root (default: lint.allow)" );
      ( "--only",
        Arg.String (fun s -> only := !only @ split_commas s),
        "RULES comma-separated rules to run (default: all of "
        ^ String.concat "," Smartlint.Driver.all_rules
        ^ ")" );
      ( "--skip",
        Arg.String (fun s -> skip := !skip @ split_commas s),
        "RULES comma-separated rules to disable" );
      ("--quiet", Arg.Set quiet, " print only the summary line");
      ("--json", Arg.Set json, " print the report as JSON instead of text");
      ( "--json-out",
        Arg.String (fun s -> json_out := Some s),
        "FILE also write the JSON report to FILE" );
      ( "--strict",
        Arg.Set strict,
        " escalate unused lint.allow entries from warn to error" );
    ]
  in
  Arg.parse spec
    (fun anon -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" anon)))
    "smartlint [--root DIR] [--allow FILE] [--only RULES] [--skip RULES] \
     [--strict] [--json] [--json-out FILE]";
  List.iter
    (fun r ->
      if not (List.mem r Smartlint.Driver.all_rules) then begin
        Printf.eprintf "smartlint: unknown rule %S (known: %s)\n" r
          (String.concat ", " Smartlint.Driver.all_rules);
        exit 2
      end)
    (!only @ !skip);
  let config = default_config !root in
  let config =
    {
      config with
      Smartlint.Driver.only = !only;
      skip = !skip;
      strict = !strict;
      allow_path = Option.value ~default:config.Smartlint.Driver.allow_path !allow;
    }
  in
  match Smartlint.Driver.run config with
  | Error msg ->
    Printf.eprintf "smartlint: %s\n" msg;
    exit 2
  | Ok report ->
    (match !json_out with
    | Some path ->
      let oc = open_out path in
      output_string oc (Smartlint.Driver.report_to_json report);
      close_out oc
    | None -> ());
    if !json then print_string (Smartlint.Driver.report_to_json report)
    else
      Smartlint.Driver.print_report
        (if !quiet then { report with diagnostics = [] } else report);
    exit (if report.errors > 0 then 1 else 0)
