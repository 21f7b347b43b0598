(* Tier-2: the smartlint analyzer against the lint_fixtures mini-project,
   plus the whole-stack determinism regression the linter exists to guard.

   Tests execute with cwd [_build/default/test]; [..] is the build-tree
   root, which mirrors the source tree, so the same path serves as both
   [root] (sources, dune files, allowlists) and [build_root] (cmts). *)

module D = Smartlint.Diagnostic
module Dr = Smartlint.Driver
module U = Smart_util
module S = Smart_sim
module H = Smart_host
module C = Smart_core

let fixture_config ~allow =
  {
    Dr.root = "..";
    build_root = "..";
    lib_dirs = [ "test/lint_fixtures" ];
    sans_io_dirs = [ "test/lint_fixtures" ];
    proto_dirs = [ "test/lint_fixtures" ];
    program_dirs = [ "test/lint_fixtures/programs" ];
    unchecked_files = [];
    root_dirs = [ "test/lint_fixtures/root" ];
    test_dirs = [ "test/lint_fixtures/tests" ];
    allow_path = allow;
    only = [];
    skip = [];
    strict = false;
  }

let run ?(only = []) ~allow () =
  match Dr.run { (fixture_config ~allow) with only } with
  | Ok r -> r
  | Error e -> Alcotest.failf "smartlint failed: %s" e

(* No allowlist: every planted violation must surface. *)
let report = lazy (run ~allow:"no-such.allow" ())

let find (report : Dr.report) ~rule ~file ~line =
  List.filter
    (fun (d : D.t) ->
      String.equal d.rule rule && String.equal d.file file && d.line = line)
    report.diagnostics

let check_hit ?(severity = D.Error) ~rule ~file ~line () =
  let report = Lazy.force report in
  match find report ~rule ~file ~line with
  | [] ->
    Alcotest.failf "expected %s diagnostic at %s:%d, got none in:\n%s" rule file
      line
      (String.concat "\n" (List.map D.to_string report.diagnostics))
  | d :: _ ->
    Alcotest.(check bool)
      (Printf.sprintf "%s %s:%d severity" rule file line)
      true
      (d.D.severity = severity)

let fx name = "test/lint_fixtures/" ^ name

let test_io_purity () =
  check_hit ~rule:"io-purity" ~file:(fx "fx_io.ml") ~line:3 ();
  check_hit ~rule:"io-purity" ~file:(fx "fx_io.ml") ~line:4 ();
  (* the dune stanza lists unix and fx_io really imports it *)
  check_hit ~rule:"io-purity" ~file:(fx "dune") ~line:1 ()

let test_determinism_rule () =
  check_hit ~rule:"determinism" ~file:(fx "fx_random.ml") ~line:3 ();
  check_hit ~rule:"determinism" ~file:(fx "fx_random.ml") ~line:4 ();
  check_hit ~severity:D.Warn ~rule:"determinism" ~file:(fx "fx_random.ml")
    ~line:6 ()

(* A span recorder is exactly where a wall clock sneaks into sans-IO
   code; the rule must see through the record-path indirection. *)
let test_determinism_tracer () =
  check_hit ~rule:"determinism" ~file:(fx "fx_tracer.ml") ~line:11 ();
  check_hit ~rule:"determinism" ~file:(fx "fx_tracer.ml") ~line:15 ()

let test_poly_compare () =
  check_hit ~rule:"poly-compare" ~file:(fx "fx_compare.ml") ~line:5 ();
  check_hit ~rule:"poly-compare" ~file:(fx "fx_compare.ml") ~line:6 ();
  check_hit ~severity:D.Warn ~rule:"poly-compare" ~file:(fx "fx_compare.ml")
    ~line:7 ();
  (* [x <> None] only inspects the tag: exempt *)
  Alcotest.(check (list string))
    "nullary-constructor comparison exempt" []
    (List.map D.to_string
       (find (Lazy.force report) ~rule:"poly-compare" ~file:(fx "fx_compare.ml")
          ~line:8))

let test_unsafe () =
  check_hit ~rule:"unsafe" ~file:(fx "fx_unsafe.ml") ~line:3 ();
  check_hit ~rule:"unsafe" ~file:(fx "fx_unsafe.ml") ~line:4 ();
  check_hit ~rule:"unsafe" ~file:(fx "fx_unsafe.ml") ~line:6 ()

(* Bigarray/Array unsafe accessors: banned by default, waived only for
   the files the config declares unchecked-safe (in the real tree, the
   bytecode interpreter). *)
let test_unchecked_indexing () =
  check_hit ~rule:"unsafe" ~file:(fx "fx_bigarray.ml") ~line:4 ();
  check_hit ~rule:"unsafe" ~file:(fx "fx_bigarray.ml") ~line:6 ();
  let waived =
    match
      Dr.run
        {
          (fixture_config ~allow:"no-such.allow") with
          unchecked_files = [ fx "fx_bigarray.ml" ];
        }
    with
    | Ok r -> r
    | Error e -> Alcotest.failf "smartlint failed: %s" e
  in
  Alcotest.(check (list string))
    "declared file is exempt" []
    (List.map D.to_string
       (List.filter
          (fun (d : D.t) ->
            String.equal d.rule "unsafe"
            && String.equal d.file (fx "fx_bigarray.ml"))
          waived.Dr.diagnostics))

let test_iface () =
  check_hit ~rule:"iface" ~file:(fx "fx_nomli.ml") ~line:1 ();
  Alcotest.(check (list string))
    "modules with .mli pass" []
    (List.map D.to_string
       (find (Lazy.force report) ~rule:"iface" ~file:(fx "fx_io.ml") ~line:1))

let test_severity_model () =
  let r = Lazy.force report in
  Alcotest.(check bool) "errors counted" true (r.Dr.errors >= 10);
  Alcotest.(check bool) "warns counted" true (r.Dr.warns >= 2);
  Alcotest.(check int) "nothing suppressed without an allowlist" 0 r.Dr.suppressed

let test_only_filter () =
  let r = run ~only:[ "iface" ] ~allow:"no-such.allow" () in
  Alcotest.(check bool) "some iface diagnostics" true (r.Dr.errors > 0);
  List.iter
    (fun (d : D.t) ->
      Alcotest.(check string) "only iface survives the filter" "iface" d.rule)
    r.Dr.diagnostics;
  (* each whole-program pass toggles independently *)
  List.iter
    (fun rule ->
      let r = run ~only:[ rule ] ~allow:"no-such.allow" () in
      List.iter
        (fun (d : D.t) ->
          Alcotest.(check string)
            (Printf.sprintf "only %s survives the filter" rule)
            rule d.rule)
        r.Dr.diagnostics;
      if String.equal rule "bytecode" then
        Alcotest.(check int)
          "clean fixture programs: no bytecode diagnostics" 0 r.Dr.errors
      else
        Alcotest.(check bool)
          (Printf.sprintf "some %s diagnostics" rule)
          true (r.Dr.errors > 0))
    [ "effects"; "wire"; "bytecode"; "reach"; "knob" ]

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.equal (String.sub s i n) sub || go (i + 1)) in
  n = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Whole-program passes                                                 *)
(* ------------------------------------------------------------------ *)

(* Effect inference: fx_chain never references a clock directly; every
   binding reaches one only through fx_chain_util, a stored closure, or
   an optional-argument default. *)
let test_effects () =
  check_hit ~rule:"effects" ~file:(fx "fx_chain.ml") ~line:4 ();
  (* entry *)
  check_hit ~rule:"effects" ~file:(fx "fx_chain.ml") ~line:6 ();
  (* stamp: a let-bound function value, no syntactic call *)
  check_hit ~rule:"effects" ~file:(fx "fx_chain.ml") ~line:8 ();
  (* entry2: three hops, through stamp *)
  check_hit ~rule:"effects" ~file:(fx "fx_chain.ml") ~line:10 ();
  (* sample: the sink hides in the optional-argument default *)
  (match
     find (Lazy.force report) ~rule:"effects" ~file:(fx "fx_chain.ml") ~line:4
   with
  | [] -> Alcotest.fail "no effects diagnostic for Fx_chain.entry"
  | d :: _ ->
    Alcotest.(check bool) "diagnostic names every hop of the chain" true
      (contains
         ~sub:
           "Fx_chain.entry -> Fx_chain_util.hidden_now -> Stdlib.Sys.time"
         d.D.message));
  (match
     find (Lazy.force report) ~rule:"effects" ~file:(fx "fx_chain.ml") ~line:8
   with
  | [] -> Alcotest.fail "no effects diagnostic for Fx_chain.entry2"
  | d :: _ ->
    Alcotest.(check bool) "indirect chain goes through stamp" true
      (contains
         ~sub:
           "Fx_chain.entry2 -> Fx_chain.stamp -> Fx_chain_util.hidden_now \
            -> Stdlib.Sys.time"
         d.D.message));
  (* the binding that touches the clock directly is the determinism
     rule's finding, not re-reported here *)
  Alcotest.(check (list string))
    "no effects diagnostic at the sink itself" []
    (List.map D.to_string
       (List.filter
          (fun (d : D.t) ->
            String.equal d.rule "effects"
            && String.equal d.file (fx "fx_chain_util.ml"))
          (Lazy.force report).Dr.diagnostics))

(* Wire registry: every planted collision in fx_wire surfaces at its
   own line. *)
let test_wire () =
  (* Gamma reuses Beta's payload code 3 *)
  check_hit ~rule:"wire" ~file:(fx "fx_wire.ml") ~line:11 ();
  (* Delta's base code 16 escapes [1, traced_code_offset) *)
  check_hit ~rule:"wire" ~file:(fx "fx_wire.ml") ~line:12 ();
  (* 2 * traced_code_offset > crc_code_offset: ranges overlap *)
  check_hit ~rule:"wire" ~file:(fx "fx_wire.ml") ~line:14 ();
  (* crc_code_offset 24 is not a power of two *)
  check_hit ~rule:"wire" ~file:(fx "fx_wire.ml") ~line:16 ();
  (* option code 2 collides with the ctx_flag bit *)
  check_hit ~rule:"wire" ~file:(fx "fx_wire.ml") ~line:22 ();
  (* result_magic spells the same bytes as query_magic *)
  check_hit ~rule:"wire" ~file:(fx "fx_wire.ml") ~line:28 ()

(* The determinism sinks added for Digest and environment reads. *)
let test_determinism_new_sinks () =
  check_hit ~rule:"determinism" ~file:(fx "fx_digest.ml") ~line:3 ();
  check_hit ~rule:"determinism" ~file:(fx "fx_env.ml") ~line:3 ();
  check_hit ~rule:"determinism" ~file:(fx "fx_env.ml") ~line:5 ()

(* Reach: the export the fixture root names is clean; the one only the
   tests directory names and the one nothing names are both errors.  So
   for constructors: the one the root builds is clean, and the one only
   tests build and the one the root only matches are errors. *)
let test_reach () =
  let clean what line =
    Alcotest.(check (list string))
      what []
      (List.map D.to_string
         (find (Lazy.force report) ~rule:"reach" ~file:(fx "fx_reach.mli")
            ~line))
  in
  clean "export named by the root" 1;
  check_hit ~rule:"reach" ~file:(fx "fx_reach.mli") ~line:2 ();
  check_hit ~rule:"reach" ~file:(fx "fx_reach.mli") ~line:3 ();
  clean "constructor built by the root" 6;
  check_hit ~rule:"reach" ~file:(fx "fx_reach.mli") ~line:7 ();
  check_hit ~rule:"reach" ~file:(fx "fx_reach.mli") ~line:8 ()

(* Knob: the optional parameters the fixture root passes (through a [?]
   forward, or to a partial application) are clean, the one only the
   tests directory passes warns, and the one nobody passes is an error;
   one diagnostic per parameter. *)
let test_knob () =
  let knob_lines severity =
    List.filter_map
      (fun (d : D.t) ->
        if
          String.equal d.rule "knob"
          && String.equal d.file (fx "fx_knob.mli")
          && d.severity = severity
        then Some d.line
        else None)
      (Lazy.force report).Dr.diagnostics
  in
  Alcotest.(check (list int)) "test-only parameter warns" [ 2 ]
    (knob_lines D.Warn);
  Alcotest.(check (list int)) "unpassed parameter is an error" [ 3 ]
    (knob_lines D.Error);
  Alcotest.(check (list string)) "partial application passes the rest" []
    (List.map D.to_string
       (find (Lazy.force report) ~rule:"knob" ~file:(fx "fx_knob.mli")
          ~line:4));
  match
    find (Lazy.force report) ~rule:"knob" ~file:(fx "fx_knob.mli") ~line:3
  with
  | [ d ] ->
    Alcotest.(check bool) "message names the parameter" true
      (contains ~sub:"Fx_knob.unpassed ?spare" d.D.message)
  | ds -> Alcotest.failf "expected one knob diagnostic at line 3, got %d"
            (List.length ds)

(* Doc: a reference to the interface's own type, a constructor, a
   sibling module or a library-qualified path resolves; one to a name
   nothing declares is an error at its line.  So is a doc comment
   attached to no declaration, while the preamble and the comments
   attached to the types are not. *)
let test_doc_refs () =
  let doc_lines =
    List.filter_map
      (fun (d : D.t) ->
        if String.equal d.rule "doc" && String.equal d.file (fx "fx_doc.mli")
        then Some d.line
        else None)
      (Lazy.force report).Dr.diagnostics
  in
  Alcotest.(check (list int)) "dangling reference and stray comment" [ 4; 7 ]
    doc_lines;
  check_hit ~rule:"doc" ~file:(fx "fx_doc.mli") ~line:4 ();
  check_hit ~rule:"doc" ~file:(fx "fx_doc.mli") ~line:7 ()

(* Bytecode rule: the checked-in fixture programs all compile and pass
   the full verifier; a stale fixture is itself an error. *)
let test_bytecode_rule () =
  Alcotest.(check bool) "fixture programs present in the scan tree" true
    (Sys.file_exists "../test/lint_fixtures/programs/sweep_conjunction.req");
  Alcotest.(check (list string))
    "checked-in requirement fixtures verify clean" []
    (List.map D.to_string
       (List.filter
          (fun (d : D.t) -> String.equal d.rule "bytecode")
          (Lazy.force report).Dr.diagnostics));
  (* a program that stops parsing is reported, not skipped *)
  let dir = Filename.temp_file "smartlint" ".d" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let oc = open_out (Filename.concat dir "broken.req") in
  output_string oc "host_cpu_free >>> (\n";
  close_out oc;
  let diags = Smartlint.Progcheck.check ~root:dir [ "." ] in
  Sys.remove (Filename.concat dir "broken.req");
  Sys.rmdir dir;
  match diags with
  | [ d ] ->
    Alcotest.(check bool) "stale fixture is an error" true
      (d.D.severity = D.Error);
    Alcotest.(check bool) "message says it verifies nothing" true
      (contains ~sub:"verifies nothing" d.D.message)
  | ds ->
    Alcotest.failf "expected one diagnostic for the broken fixture, got %d"
      (List.length ds)

let test_allowlist_suppression () =
  let bare = Lazy.force report in
  let allowed = run ~allow:(fx "fixtures.allow") () in
  (* exactly the fx_allowed entry disappears; everything else stays *)
  Alcotest.(check bool)
    "violation present without allowlist" true
    (find bare ~rule:"poly-compare" ~file:(fx "fx_allowed.ml") ~line:3 <> []);
  Alcotest.(check (list string))
    "violation suppressed with allowlist" []
    (List.map D.to_string
       (find allowed ~rule:"poly-compare" ~file:(fx "fx_allowed.ml") ~line:3));
  Alcotest.(check int) "exactly one diagnostic suppressed" 1 allowed.Dr.suppressed;
  Alcotest.(check int) "one entry loaded" 1 allowed.Dr.allow_size;
  Alcotest.(check int) "errors drop by exactly one" (bare.Dr.errors - 1)
    allowed.Dr.errors

let test_allowlist_unused () =
  let r = run ~allow:(fx "unused.allow") () in
  Alcotest.(check int) "stale entry suppresses nothing" 0 r.Dr.suppressed;
  Alcotest.(check bool) "stale entry reported" true
    (List.exists
       (fun (d : D.t) ->
         String.equal d.rule "allowlist" && d.severity = D.Warn)
       r.Dr.diagnostics)

(* An entry for a rule that did not run is not judged stale. *)
let test_allowlist_rule_not_run () =
  let r = run ~only:[ "doc" ] ~allow:(fx "unused.allow") () in
  Alcotest.(check (list string))
    "no stale-entry diagnostic" []
    (List.map D.to_string
       (List.filter
          (fun (d : D.t) -> String.equal d.rule "allowlist")
          r.Dr.diagnostics))

(* --strict escalates stale allowlist entries from warn to error, so CI
   fails instead of letting exemptions rot. *)
let test_strict_mode () =
  let lax = run ~allow:(fx "unused.allow") () in
  let strict =
    match
      Dr.run { (fixture_config ~allow:(fx "unused.allow")) with strict = true }
    with
    | Ok r -> r
    | Error e -> Alcotest.failf "smartlint failed: %s" e
  in
  let stale (r : Dr.report) =
    List.filter
      (fun (d : D.t) -> String.equal d.rule "allowlist")
      r.Dr.diagnostics
  in
  (match (stale lax, stale strict) with
  | [ l ], [ s ] ->
    Alcotest.(check bool) "warn when lax" true (l.D.severity = D.Warn);
    Alcotest.(check bool) "error when strict" true (s.D.severity = D.Error)
  | l, s ->
    Alcotest.failf "expected one stale-entry diagnostic each, got %d/%d"
      (List.length l) (List.length s));
  Alcotest.(check int) "the escalation moves exactly one warn to error"
    (lax.Dr.errors + 1) strict.Dr.errors;
  Alcotest.(check int) "warns drop by one" (lax.Dr.warns - 1) strict.Dr.warns

(* ------------------------------------------------------------------ *)
(* Report formats: golden text + JSON over the whole fixture tree.      *)
(* Regenerate with LINT_GOLDEN_REGEN=1 dune runtest (writes back into   *)
(* the source tree, cwd being _build/default/test).                     *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  text

let regen = Option.is_some (Sys.getenv_opt "LINT_GOLDEN_REGEN")

(* cwd is _build/default/test; the source tree's test/ is three up *)
let source_golden name = "../../../test/" ^ name

let render_text r =
  let path = Filename.temp_file "smartlint" ".txt" in
  let oc = open_out path in
  Dr.print_report ~out:oc r;
  close_out oc;
  let text = read_file path in
  Sys.remove path;
  text

let test_golden_text () =
  let actual = render_text (Lazy.force report) in
  if regen then begin
    let oc = open_out (source_golden "lint_golden.txt") in
    output_string oc actual;
    close_out oc
  end
  else
    Alcotest.(check string) "text report pinned" (read_file "lint_golden.txt")
      actual

let test_golden_json () =
  let actual = Dr.report_to_json (Lazy.force report) in
  if regen then begin
    let oc = open_out (source_golden "lint_golden.json") in
    output_string oc actual;
    close_out oc
  end
  else
    Alcotest.(check string) "json report pinned" (read_file "lint_golden.json")
      actual

(* Structural sanity of the JSON beyond the golden: one object per
   diagnostic, summary counts embedded. *)
let test_json_shape () =
  let r = Lazy.force report in
  let json = Dr.report_to_json r in
  let count_sub sub =
    let n = String.length sub in
    let rec go i acc =
      if i + n > String.length json then acc
      else if String.equal (String.sub json i n) sub then go (i + n) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  Alcotest.(check int) "one object per diagnostic"
    (List.length r.Dr.diagnostics)
    (count_sub "{\"file\":");
  Alcotest.(check bool) "summary embedded" true
    (contains
       ~sub:(Printf.sprintf "\"errors\": %d, \"warnings\": %d" r.Dr.errors r.Dr.warns)
       json);
  (* messages with quotes/backslashes stay valid JSON *)
  Alcotest.(check string) "escaping" "{\"file\":\"a\\\"b\",\"line\":1,\"severity\":\"error\",\"rule\":\"x\",\"message\":\"tab\\tnl\\nq\\\"\"}"
    (D.to_json
       (D.make ~rule:"x" ~severity:D.Error ~file:"a\"b" ~line:1 "tab\tnl\nq\""))

let test_allowlist_malformed () =
  (* A rule with no target is a hard config error, not a silent skip. *)
  let path = Filename.temp_file "smartlint" ".allow" in
  let oc = open_out path in
  output_string oc "nospace\n";
  close_out oc;
  let result = Smartlint.Allowlist.load path in
  Sys.remove path;
  match result with
  | Ok _ -> Alcotest.fail "malformed allowlist accepted"
  | Error msg ->
    Alcotest.(check bool) "error names the offending line" true
      (String.length msg > 0)

(* ------------------------------------------------------------------ *)
(* Determinism regression: the property the linter enforces statically  *)
(* must hold dynamically — two same-seed runs are byte-identical.       *)
(* ------------------------------------------------------------------ *)

let render_trace trace =
  S.Trace.entries trace
  |> List.map (fun (e : S.Trace.entry) ->
         Printf.sprintf "%.9f|%s|%s" e.time e.category e.message)
  |> String.concat "\n"

(* The seeded trace scenario: the ICPP-2005 testbed with a packet trace,
   settled, then one request from sagit. *)
let run_stack () =
  let module Sc = Smart_experiments.Scenario in
  let o =
    Sc.run (List.find (fun (s : Sc.t) -> String.equal s.Sc.name "trace") Sc.all)
  in
  let trace =
    match H.Cluster.trace o.Sc.cluster with
    | Some trace -> trace
    | None -> Alcotest.fail "the trace scenario records no packet trace"
  in
  let servers =
    match o.Sc.tally with
    | Sc.Reply (Ok servers) -> String.concat "," servers
    | Sc.Reply (Error e) -> Format.asprintf "error: %a" C.Client.pp_error e
    | Sc.Answered _ | Sc.Ledger _ -> Alcotest.fail "not one request"
  in
  ( render_trace trace,
    U.Metrics.to_text (C.Simdriver.metrics o.Sc.deployment),
    List.assoc "trace.json" o.Sc.outputs,
    servers )

let test_same_seed_identical () =
  let t1, m1, j1, s1 = run_stack () and t2, m2, j2, s2 = run_stack () in
  Alcotest.(check bool) "trace non-empty" true (String.length t1 > 0);
  Alcotest.(check bool) "metrics non-empty" true (String.length m1 > 0);
  Alcotest.(check bool) "span export non-empty" true (String.length j1 > 0);
  Alcotest.(check string) "traces byte-identical" t1 t2;
  Alcotest.(check string) "metrics snapshots byte-identical" m1 m2;
  Alcotest.(check string) "span exports byte-identical" j1 j2;
  Alcotest.(check string) "selections identical" s1 s2

let () =
  Alcotest.run "lint"
    [
      ( "rules",
        [
          Alcotest.test_case "io-purity" `Quick test_io_purity;
          Alcotest.test_case "determinism" `Quick test_determinism_rule;
          Alcotest.test_case "determinism: span recorder" `Quick
            test_determinism_tracer;
          Alcotest.test_case "poly-compare" `Quick test_poly_compare;
          Alcotest.test_case "unsafe" `Quick test_unsafe;
          Alcotest.test_case "unchecked indexing" `Quick
            test_unchecked_indexing;
          Alcotest.test_case "iface" `Quick test_iface;
          Alcotest.test_case "severity model" `Quick test_severity_model;
          Alcotest.test_case "--only filter" `Quick test_only_filter;
        ] );
      ( "whole-program",
        [
          Alcotest.test_case "effects: laundered sinks" `Quick test_effects;
          Alcotest.test_case "wire registry" `Quick test_wire;
          Alcotest.test_case "determinism: digest + env sinks" `Quick
            test_determinism_new_sinks;
          Alcotest.test_case "bytecode fixtures verify" `Quick
            test_bytecode_rule;
          Alcotest.test_case "reach: export callers" `Quick test_reach;
          Alcotest.test_case "knob: optional parameter callers" `Quick
            test_knob;
          Alcotest.test_case "doc: cross-references" `Quick test_doc_refs;
        ] );
      ( "report",
        [
          Alcotest.test_case "golden text" `Quick test_golden_text;
          Alcotest.test_case "golden json" `Quick test_golden_json;
          Alcotest.test_case "json shape" `Quick test_json_shape;
        ] );
      ( "allowlist",
        [
          Alcotest.test_case "suppression" `Quick test_allowlist_suppression;
          Alcotest.test_case "unused entry" `Quick test_allowlist_unused;
          Alcotest.test_case "entry of a rule not run" `Quick
            test_allowlist_rule_not_run;
          Alcotest.test_case "strict mode" `Quick test_strict_mode;
          Alcotest.test_case "malformed entry" `Quick test_allowlist_malformed;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "same-seed runs byte-identical" `Quick
            test_same_seed_identical;
        ] );
    ]
