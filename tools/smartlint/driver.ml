(* Orchestration: load the allowlist, scan the build tree's cmts, run
   every enabled rule family, apply suppression, and render the report.

   [root] is the source tree, [build_root] the directory where compiled
   artifacts mirror it (dune's _build/default — or the source root itself
   when running from inside _build, as the test suite does). *)

type config = {
  root : string;
  build_root : string;
  lib_dirs : string list;      (* scanned at all: poly-compare, unsafe, iface *)
  sans_io_dirs : string list;  (* subset: io-purity + determinism + effects *)
  proto_dirs : string list;    (* subset: assert-false ban + wire registry *)
  program_dirs : string list;
      (* root-relative dirs of checked-in *.req requirement fixtures the
         bytecode rule compiles and verifies *)
  unchecked_files : string list;
      (* root-relative sources where Bigarray/Array unsafe accessors are
         in contract (the bytecode interpreter) *)
  root_dirs : string list;
      (* scanned only for references to lib exports (rule: reach):
         binaries, benchmarks, examples, tools *)
  test_dirs : string list;
      (* likewise, but a reference from here only counts as a test's *)
  allow_path : string;         (* allowlist file, relative to [root] *)
  only : string list;          (* when non-empty, run just these rules *)
  skip : string list;          (* rules to disable *)
  strict : bool;               (* unused allowlist entries become errors *)
}

let all_rules =
  [
    "io-purity"; "determinism"; "poly-compare"; "unsafe"; "iface";
    "effects"; "wire"; "bytecode"; "reach"; "knob"; "doc";
  ]

let rule_enabled config rule =
  (match config.only with [] -> true | only -> List.mem rule only)
  && not (List.mem rule config.skip)

type report = {
  diagnostics : Diagnostic.t list;  (* survivors, sorted *)
  errors : int;
  warns : int;
  suppressed : int;
  files_scanned : int;
  allow_size : int;
}

let run config =
  let ( / ) = Filename.concat in
  match Allowlist.load (config.root / config.allow_path) with
  | Error msg -> Error msg
  | Ok allow ->
    let in_dirs dirs file = List.exists (Project.in_dir file) dirs in
    let all_cmts =
      Project.load_cmts ~root:config.root ~build_root:config.build_root
        (config.lib_dirs @ config.root_dirs @ config.test_dirs)
    in
    let cmts =
      List.filter
        (fun (c : Project.cmt) -> in_dirs config.lib_dirs c.source)
        all_cmts
    in
    let tree_diags =
      List.concat_map
        (fun (c : Project.cmt) ->
          match c.structure with
          | None -> []
          | Some str ->
            let ctx =
              {
                Rules.file = c.source;
                sans_io = List.exists (Project.in_dir c.source) config.sans_io_dirs;
                proto = List.exists (Project.in_dir c.source) config.proto_dirs;
                unchecked_ok =
                  List.exists (String.equal c.source) config.unchecked_files;
              }
            in
            Rules.check_structure ctx str)
        cmts
    in
    let already_flagged =
      List.filter_map
        (fun (d : Diagnostic.t) ->
          if String.equal d.rule "io-purity" then Some d.file else None)
        tree_diags
    in
    (* Whole-program passes.  Effects and the wire checks both consume
       the call graph, so build it once when either is enabled. *)
    let want_effects = rule_enabled config "effects" in
    let want_wire = rule_enabled config "wire" in
    let graph_diags =
      if not (want_effects || want_wire) then []
      else begin
        let graph = Callgraph.build cmts in
        let effects_diags =
          if not want_effects then []
          else
            Effects.check graph ~sans_io:(fun file ->
                List.exists (Project.in_dir file) config.sans_io_dirs)
        in
        let wire_diags =
          if not want_wire then []
          else
            Wirecheck.check ~graph
              (List.filter
                 (fun (c : Project.cmt) ->
                   List.exists (Project.in_dir c.source) config.proto_dirs)
                 cmts)
        in
        effects_diags @ wire_diags
      end
    in
    let bytecode_diags =
      if rule_enabled config "bytecode" then
        Progcheck.check ~root:config.root config.program_dirs
      else []
    in
    let ifaces =
      lazy
        (Project.load_ifaces ~root:config.root ~build_root:config.build_root
           config.lib_dirs)
    in
    let reach_diags =
      if rule_enabled config "reach" then
        Reach.check ~ifaces:(Lazy.force ifaces) ~callers:all_cmts
          ~is_test:(in_dirs config.test_dirs)
      else []
    in
    let knob_diags =
      if rule_enabled config "knob" then
        Knob.check ~ifaces:(Lazy.force ifaces) ~callers:all_cmts
          ~is_test:(in_dirs config.test_dirs)
      else []
    in
    let doc_diags =
      if rule_enabled config "doc" then
        Docref.check ~root:config.root ~ifaces:(Lazy.force ifaces)
      else []
    in
    let diags =
      tree_diags
      @ Project.iface_check ~root:config.root config.lib_dirs
      @ Project.deps_check ~root:config.root ~cmts
          ~sans_io_dirs:config.sans_io_dirs config.lib_dirs
      @ Project.imports_check ~cmts ~already_flagged config.sans_io_dirs
      @ graph_diags @ bytecode_diags @ reach_diags @ knob_diags @ doc_diags
    in
    let diags =
      List.filter (fun (d : Diagnostic.t) -> rule_enabled config d.rule) diags
    in
    let kept, suppressed =
      List.partition (fun d -> not (Allowlist.suppresses allow d)) diags
    in
    (* Unused allowlist entries warn by default; [strict] escalates them
       to errors so stale exemptions cannot accumulate (the CI mode).  An
       entry for a rule that did not run is not judged. *)
    let unused =
      List.map
        (fun (d : Diagnostic.t) ->
          if config.strict then { d with Diagnostic.severity = Diagnostic.Error }
          else d)
        (Allowlist.unused_entries allow ~ran:(rule_enabled config))
    in
    let kept = kept @ unused in
    let kept = List.sort Diagnostic.compare_diag kept in
    let count sev =
      List.length
        (List.filter (fun (d : Diagnostic.t) -> d.severity = sev) kept)
    in
    Ok
      {
        diagnostics = kept;
        errors = count Diagnostic.Error;
        warns = count Diagnostic.Warn;
        suppressed = List.length suppressed;
        files_scanned = List.length cmts;
        allow_size = Allowlist.size allow;
      }

let print_report ?(out = stdout) report =
  List.iter
    (fun d -> output_string out (Diagnostic.to_string d ^ "\n"))
    report.diagnostics;
  Printf.fprintf out
    "smartlint: %d file%s scanned, %d error%s, %d warning%s, %d suppressed by \
     allowlist (%d entr%s)\n"
    report.files_scanned
    (if report.files_scanned = 1 then "" else "s")
    report.errors
    (if report.errors = 1 then "" else "s")
    report.warns
    (if report.warns = 1 then "" else "s")
    report.suppressed report.allow_size
    (if report.allow_size = 1 then "y" else "ies")

(* The whole report as one JSON document: a summary object plus one
   diagnostic object per line, stable in the same order as the text
   report (file, line, rule).  CI uploads this as an artifact and the
   problem matcher consumes the per-line objects. *)
let report_to_json report =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"summary\": {\"files_scanned\": %d, \"errors\": %d, \"warnings\": \
        %d, \"suppressed\": %d, \"allow_entries\": %d},\n"
       report.files_scanned report.errors report.warns report.suppressed
       report.allow_size);
  Buffer.add_string buf "  \"diagnostics\": [";
  List.iteri
    (fun i d ->
      Buffer.add_string buf (if i = 0 then "\n    " else ",\n    ");
      Buffer.add_string buf (Diagnostic.to_json d))
    report.diagnostics;
  Buffer.add_string buf
    (if report.diagnostics = [] then "]\n}\n" else "\n  ]\n}\n");
  Buffer.contents buf
