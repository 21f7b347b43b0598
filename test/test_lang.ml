(* Tests for the requirement meta-language: lexer (Fig 4.1), parser,
   the reference evaluator (Fig 4.2, test/oracle) and the bytecode held
   to it, the canonical cache key held to its token-list reference
   (test/oracle), variable taxonomy, and the thesis's documented
   semantics (logic flag, conjunction of logical statements, faults). *)

module L = Smart_lang
module O = Smart_oracle

(* A text's token list, read from the production scanner one
   [Lexer.next] at a time, with its first lexical error as the parser
   reports it.  Nothing in lib/ builds a token list; the lexer tests and
   the token-list reference read this one. *)
let tokenize src : (O.Canonical.located list, L.Parser.error) result =
  let sc = L.Lexer.scanner src in
  let text () =
    String.sub sc.L.Lexer.src sc.L.Lexer.start (sc.L.Lexer.stop - sc.L.Lexer.start)
  in
  let located token =
    { O.Canonical.token; line = sc.L.Lexer.tok_line; col = sc.L.Lexer.tok_col }
  in
  let rec go acc =
    match L.Lexer.next sc with
    | L.Lexer.Bad ->
      Error
        {
          L.Parser.line = sc.L.Lexer.tok_line;
          col = sc.L.Lexer.tok_col;
          message = sc.L.Lexer.message;
        }
    | L.Lexer.Fixed L.Token.Eof -> Ok (List.rev (located L.Token.Eof :: acc))
    | L.Lexer.Fixed token -> go (located token :: acc)
    | L.Lexer.Number ->
      go (located (L.Token.Number (float_of_string (text ()))) :: acc)
    | L.Lexer.Netaddr -> go (located (L.Token.Netaddr (text ())) :: acc)
    | L.Lexer.Ident ->
      let name = text () in
      let name = if sc.L.Lexer.fold then String.lowercase_ascii name else name in
      go (located (L.Token.Ident name) :: acc)
  in
  go []

let tokens_of src =
  match tokenize src with
  | Ok toks -> List.map (fun t -> t.O.Canonical.token) toks
  | Error e -> Alcotest.failf "lex error at %d:%d: %s" e.line e.col e.message

let compile src =
  match L.Requirement.compile src with
  | Ok p -> p
  | Error e ->
    Alcotest.failf "compile error: %a" L.Requirement.pp_compile_error e

let eval ?(lookup = fun _ -> None) src = O.Eval.run ~lookup (compile src)

let qualified ?lookup src = (eval ?lookup src).O.Eval.qualified

let num_lookup bindings name =
  Option.map (fun f -> O.Value.Num f) (List.assoc_opt name bindings)

(* ------------------------------------------------------------------ *)
(* Lexer                                                                *)
(* ------------------------------------------------------------------ *)

let test_lex_numbers () =
  Alcotest.(check bool)
    "integer" true
    (tokens_of "42" = [ L.Token.Number 42.0; L.Token.Eof ]);
  Alcotest.(check bool)
    "decimal" true
    (tokens_of "3.25" = [ L.Token.Number 3.25; L.Token.Eof ])

let test_lex_netaddr_quad () =
  Alcotest.(check bool)
    "dotted quad" true
    (tokens_of "137.132.90.182"
    = [ L.Token.Netaddr "137.132.90.182"; L.Token.Eof ])

let test_lex_netaddr_hostname () =
  Alcotest.(check bool)
    "dotted host" true
    (tokens_of "sagit.ddns.comp.nus.edu.sg"
    = [ L.Token.Netaddr "sagit.ddns.comp.nus.edu.sg"; L.Token.Eof ]);
  Alcotest.(check bool)
    "hyphen allowed when dotted" true
    (tokens_of "titan-x.lab.net"
    = [ L.Token.Netaddr "titan-x.lab.net"; L.Token.Eof ])

let test_lex_hyphen_identifier_rejected () =
  match tokenize "titan-x" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bare hyphenated identifier must not lex"

let test_lex_identifier_vs_subtraction () =
  Alcotest.(check bool)
    "a - b is subtraction" true
    (tokens_of "a - b"
    = [ L.Token.Ident "a"; L.Token.Minus; L.Token.Ident "b"; L.Token.Eof ])

let test_lex_comments_and_whitespace () =
  Alcotest.(check bool)
    "comment to EOL" true
    (tokens_of "1 # the rest is ignored ><&\n2"
    = [ L.Token.Number 1.0; L.Token.Newline; L.Token.Number 2.0; L.Token.Eof ])

let test_lex_operators () =
  Alcotest.(check bool)
    "all operators" true
    (tokens_of ">= <= == != && || > < = + - * / ^ ( )"
    = L.Token.
        [
          Ge; Le; Eq; Ne; And; Or; Gt; Lt; Assign; Plus; Minus; Star; Slash;
          Caret; Lparen; Rparen; Eof;
        ])

let test_lex_bad_ampersand () =
  match tokenize "a & b" with
  | Error e -> Alcotest.(check int) "column of &" 3 e.L.Parser.col
  | Ok _ -> Alcotest.fail "single & must not lex"

let test_lex_malformed_quad () =
  match tokenize "1.2.3" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "1.2.3 is neither number nor address"

let test_lex_positions () =
  match tokenize "a\n  b" with
  | Ok [ _a; _nl; b; _eof ] ->
    Alcotest.(check int) "line" 2 b.O.Canonical.line;
    Alcotest.(check int) "col" 3 b.O.Canonical.col
  | Ok _ | Error _ -> Alcotest.fail "unexpected lex result"

(* ------------------------------------------------------------------ *)
(* Parser                                                               *)
(* ------------------------------------------------------------------ *)

let eval_expr src =
  match (eval src).O.Eval.statements with
  | [ { O.Eval.value = Ok (O.Value.Num f); _ } ] -> f
  | [ { O.Eval.value = Error m; _ } ] -> Alcotest.failf "eval fault: %s" m
  | _ -> Alcotest.fail "expected one numeric statement"

let check_eval name expected src =
  Alcotest.(check (float 1e-9)) name expected (eval_expr src)

let test_parse_precedence () =
  check_eval "mul before add" 7.0 "1 + 2 * 3";
  check_eval "parens" 9.0 "(1 + 2) * 3";
  check_eval "left assoc sub" 0.0 "5 - 3 - 2";
  check_eval "div" 2.5 "5 / 2";
  check_eval "pow right assoc" 512.0 "2 ^ 3 ^ 2";
  check_eval "pow before mul" 18.0 "2 * 3 ^ 2";
  check_eval "unary minus" (-4.0) "-4";
  check_eval "cmp after arith" 1.0 "1 + 1 == 2";
  check_eval "and after cmp" 1.0 "1 < 2 && 2 < 3";
  check_eval "or after and" 1.0 "0 && 0 || 1"

let test_parse_builtin_call () =
  check_eval "sqrt" 3.0 "sqrt(9)";
  check_eval "log10" 2.0 "log10(100)";
  check_eval "nested" 1.0 "cos(sin(0))";
  check_eval "exp(0)" 1.0 "exp(0)";
  check_eval "abs" 4.5 "abs(0 - 4.5)";
  check_eval "int truncates" 3.0 "int(3.9)"

let test_parse_error_reported () =
  match L.Requirement.compile "1 + * 2\n" with
  | Error e -> Alcotest.(check int) "error line" 1 e.L.Requirement.line
  | Ok _ -> Alcotest.fail "must not parse"

(* The first lexical error wins over an earlier syntax error, as when
   the whole text was lexed before it was parsed. *)
let test_parse_lexical_error_wins () =
  let check name src ~line ~col ~message =
    match L.Parser.parse src with
    | Error e ->
      Alcotest.(check (triple int int string))
        name (line, col, message)
        (e.L.Parser.line, e.L.Parser.col, e.L.Parser.message)
    | Ok _ -> Alcotest.failf "%s: must not parse" name
  in
  check "syntax error, then a bad character" "1 + * 2\n$" ~line:2 ~col:1
    ~message:"unexpected character '$'";
  check "syntax error alone" "1 + * 2\n" ~line:1 ~col:5
    ~message:"unexpected token *";
  check "syntax error at the end" "(1 + 2" ~line:1 ~col:7 ~message:"expected ')'"

let test_parse_unbalanced_paren () =
  match L.Requirement.compile "(1 + 2\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "must not parse"

let test_parse_multiline () =
  let p = compile "1 < 2\n\n# comment line\n3 < 4\n" in
  Alcotest.(check int) "two statements" 2 (List.length p)

let test_parse_statement_lines () =
  let p = compile "1 < 2\nx = 3\nx > 1\n" in
  Alcotest.(check (list int))
    "line numbers" [ 1; 2; 3 ]
    (List.map (fun (s : L.Ast.statement) -> s.L.Ast.line) p)

(* ------------------------------------------------------------------ *)
(* is_logical — the yacc logic flag                                     *)
(* ------------------------------------------------------------------ *)

let is_logical src =
  match compile src with
  | [ st ] -> L.Ast.is_logical st.L.Ast.expr
  | _ -> Alcotest.fail "expected one statement"

let test_logic_flag () =
  (* the two examples of §3.6.1 *)
  Alcotest.(check bool) "(a+b)<=b is logical" true (is_logical "(a + b) <= b");
  Alcotest.(check bool) "a+(b<c) is not" false (is_logical "a + (b < c)");
  Alcotest.(check bool) "parens transparent" true (is_logical "((1 < 2))");
  Alcotest.(check bool) "assignment not logical" false (is_logical "x = 1 < 2");
  Alcotest.(check bool) "builtin not logical" false (is_logical "sin(1)");
  Alcotest.(check bool) "and is logical" true (is_logical "a && b")

(* ------------------------------------------------------------------ *)
(* Evaluator semantics                                                  *)
(* ------------------------------------------------------------------ *)

let test_qualification_conjunction () =
  Alcotest.(check bool) "all true" true (qualified "1 < 2\n3 < 4\n");
  Alcotest.(check bool) "one false kills" false (qualified "1 < 2\n4 < 3\n");
  Alcotest.(check bool) "non-logical ignored" true (qualified "5 + 5\n1 < 2\n")

let test_empty_program_qualifies () =
  Alcotest.(check bool) "empty qualifies" true (qualified "")

let test_temp_variables () =
  Alcotest.(check bool)
    "temp var flows" true
    (qualified "threshold = 10 * 2\n15 < threshold\n");
  Alcotest.(check bool)
    "reassignment" true
    (qualified "x = 1\nx = x + 1\nx == 2\n")

let test_undefined_in_logical_is_false () =
  (* §3.6.1: uninitialized variable in a logical statement -> false *)
  Alcotest.(check bool)
    "undefined var falsifies" false
    (qualified "no_such_thing < 10\n")

let test_undefined_fault_recorded () =
  let o = eval "no_such_thing < 10\n" in
  Alcotest.(check int) "fault recorded" 1 (List.length o.O.Eval.faults)

let test_division_by_zero () =
  Alcotest.(check bool)
    "div by zero falsifies logical" false
    (qualified "1 / 0 < 5\n");
  let o = eval "x = 1 / 0\n" in
  Alcotest.(check bool)
    "non-logical fault does not disqualify" true o.O.Eval.qualified;
  Alcotest.(check int) "but is recorded" 1 (List.length o.O.Eval.faults)

let test_assign_to_server_var_fault () =
  let o = eval "host_cpu_free = 1\n" in
  Alcotest.(check int) "read-only server vars" 1 (List.length o.O.Eval.faults)

let test_server_binding () =
  let lookup =
    num_lookup [ ("host_cpu_free", 0.95); ("host_memory_free", 100.0) ]
  in
  Alcotest.(check bool)
    "bound vars" true
    (qualified ~lookup "host_cpu_free > 0.9 && host_memory_free > 5\n");
  Alcotest.(check bool)
    "fails threshold" false
    (qualified ~lookup "host_cpu_free > 0.99\n")

let test_no_short_circuit () =
  (* the yacc actions evaluate both sides: a fault on the right of || is
     a fault even when the left is true *)
  Alcotest.(check bool)
    "|| does not shield faults" false
    (qualified "1 == 1 || no_such_thing > 0\n")

let test_uparams_collected () =
  let o =
    eval
      "user_denied_host1 = 137.132.90.182\n\
       user_preferred_host1 = sagit.ddns.comp.nus.edu.sg\n"
  in
  let preferred, denied = O.Eval.host_lists o in
  Alcotest.(check (list string))
    "preferred" [ "sagit.ddns.comp.nus.edu.sg" ] preferred;
  Alcotest.(check (list string)) "denied" [ "137.132.90.182" ] denied

let test_uparam_bare_hostname () =
  (* Table 5.5 style: a bare identifier names a host in address context *)
  let o = eval "user_denied_host1 = telesto\n" in
  let _, denied = O.Eval.host_lists o in
  Alcotest.(check (list string)) "bare name becomes address" [ "telesto" ]
    denied

let test_uparam_assignment_inside_conjunction () =
  (* Table 5.5 writes (user_denied_host1 = telesto) && ... ; the
     assignment is truthy so it must not block qualification *)
  let o = eval "(user_denied_host1 = telesto) && (1 < 2)\n" in
  Alcotest.(check bool) "qualifies" true o.O.Eval.qualified;
  let _, denied = O.Eval.host_lists o in
  Alcotest.(check (list string)) "denied collected" [ "telesto" ] denied

let test_address_comparisons () =
  Alcotest.(check bool) "equal addresses" true (qualified "1.2.3.4 == 1.2.3.4\n");
  Alcotest.(check bool)
    "unequal addresses" false
    (qualified "1.2.3.4 == 1.2.3.5\n");
  Alcotest.(check bool) "address != number" true (qualified "1.2.3.4 != 5\n");
  Alcotest.(check bool)
    "ordering addresses faults" false
    (qualified "1.2.3.4 < 1.2.3.5\n")

let test_thesis_sample_requirement () =
  (* the full example of §3.6.2 *)
  let src =
    "host_system_load1 < 1\n\
     host_memory_used <= 250*1024*1024\n\
     host_cpu_free >= 0.9\n\
     #ldjfaldjfalsjff #akldjfaldfj\n\
     #some comments\n\
     host_network_tbytesps < 1024*1024  # for network IO\n\
     # comments\n\
     user_denied_host1 = 137.132.90.182\n\
     user_preferred_host1 = sagit.ddns.comp.nus.edu.sg\n\
     #\n"
  in
  let lookup =
    num_lookup
      [
        ("host_system_load1", 0.2);
        ("host_memory_used", 120.0);
        ("host_cpu_free", 0.95);
        ("host_network_tbytesps", 2048.0);
      ]
  in
  let o = O.Eval.run ~lookup (compile src) in
  Alcotest.(check bool) "qualifies" true o.O.Eval.qualified;
  let preferred, denied = O.Eval.host_lists o in
  Alcotest.(check int) "one preferred" 1 (List.length preferred);
  Alcotest.(check int) "one denied" 1 (List.length denied)

let test_meaningless_statement () =
  (* "a meaningless statement like 100 > 0 will make any server
     qualified" *)
  Alcotest.(check bool) "100 > 0 qualifies anything" true (qualified "100 > 0\n")

(* ------------------------------------------------------------------ *)
(* Vars / builtins                                                      *)
(* ------------------------------------------------------------------ *)

let test_vars_counts () =
  Alcotest.(check int)
    "22 server-side variables" 22
    (List.length L.Vars.server_side);
  Alcotest.(check int) "10 user-side variables" 10 (List.length L.Vars.user_side)

let test_vars_classification () =
  Alcotest.(check bool) "server side" true (L.Vars.is_server_side "host_cpu_free");
  Alcotest.(check bool)
    "monitor side counts as server side" true
    (L.Vars.is_server_side "monitor_network_bw");
  Alcotest.(check bool) "user side" true (L.Vars.is_user_side "user_denied_host3");
  Alcotest.(check bool)
    "temp is neither" false
    (L.Vars.is_server_side "my_temp" || L.Vars.is_user_side "my_temp");
  Alcotest.(check bool)
    "preferred hosts are user side" true
    (L.Vars.is_user_side "user_preferred_host2");
  Alcotest.(check bool)
    "denied hosts are user side" true
    (L.Vars.is_user_side "user_denied_host5")

let test_builtins_present () =
  List.iter
    (fun name -> Alcotest.(check bool) name true (L.Builtins.is_builtin name))
    [ "sin"; "cos"; "exp"; "log10"; "sqrt"; "abs"; "int" ];
  Alcotest.(check bool) "unknown" false (L.Builtins.is_builtin "frobnicate")

let test_builtin_domain_fault () =
  Alcotest.(check bool)
    "sqrt(-1) falsifies" false
    (qualified "sqrt(0-1) < 99\n")

let test_unbound_variables () =
  let p = compile "host_cpu_free > 0.5\nx = 1\nx < typo_here\nsin(2) > 0\n" in
  Alcotest.(check (list string))
    "typos found" [ "typo_here" ]
    (L.Requirement.unbound_variables p)

(* ------------------------------------------------------------------ *)
(* Edge cases                                                           *)
(* ------------------------------------------------------------------ *)

let test_edge_numbers () =
  check_eval "leading-zero decimal" 0.5 "0.5";
  (match tokenize ".5" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail ".5 must not lex (no leading digit)");
  check_eval "big product" (250.0 *. 1024.0 *. 1024.0) "250*1024*1024"

let test_edge_assignment_chain () =
  (* yacc: asgn is an expr, so a = b = 3 assigns both *)
  let o = eval "a = b = 3\na == 3 && b == 3\n" in
  Alcotest.(check bool) "chained assignment" true o.O.Eval.qualified

let test_edge_assign_to_builtin () =
  let o = eval "sin = 4\n" in
  Alcotest.(check int) "builtins are not assignable" 1
    (List.length o.O.Eval.faults)

let test_edge_uparam_numeric_value_ignored () =
  (* assigning a number to a host parameter stores it, but host_lists
     only extracts addresses *)
  let o = eval "user_denied_host1 = 42\n" in
  let preferred, denied = O.Eval.host_lists o in
  Alcotest.(check (list string)) "no bogus hosts" [] (preferred @ denied)

let test_edge_deep_nesting () =
  let deep = String.concat "" (List.init 40 (fun _ -> "(")) ^ "7"
             ^ String.concat "" (List.init 40 (fun _ -> ")")) in
  check_eval "40 levels of parens" 7.0 deep

let test_edge_long_program () =
  let lines = List.init 200 (fun i -> Printf.sprintf "v%d = %d" i i) in
  let src = String.concat "\n" (lines @ [ "v199 == 199"; "" ]) in
  Alcotest.(check bool) "200 statements" true (qualified src)

let test_edge_crlf_and_trailing () =
  (* \r is whitespace; a final line without newline still parses *)
  Alcotest.(check bool) "crlf" true (qualified "1 < 2\r\n3 < 4");
  Alcotest.(check int) "statement count" 2
    (List.length (compile "1 < 2\r\n3 < 4"))

let test_edge_comparison_chain () =
  (* left-assoc: (1 < 2) < 3  ->  1 < 3  -> true *)
  check_eval "chained comparison is left-assoc" 1.0 "1 < 2 < 3";
  (* and the counterintuitive case that falls out of it *)
  check_eval "(1 > 2) > 1 is false" 0.0 "1 > 2 > 1"

let test_edge_netaddr_in_arith_faults () =
  Alcotest.(check bool) "address + number faults" false
    (qualified "1.2.3.4 + 1 < 99\n")

(* ------------------------------------------------------------------ *)
(* Property tests                                                       *)
(* ------------------------------------------------------------------ *)

(* generator for random well-formed numeric expressions *)
let gen_expr =
  QCheck.Gen.(
    sized
    @@ fix (fun self n ->
           if n <= 0 then
             map (fun f -> L.Ast.Number (float_of_int f)) (int_range 0 100)
           else
             frequency
               [
                 ( 2,
                   map
                     (fun f -> L.Ast.Number (float_of_int f))
                     (int_range 0 100) );
                 ( 3,
                   map3
                     (fun op a b -> L.Ast.Arith (op, a, b))
                     (oneofl [ L.Ast.Add; L.Ast.Sub; L.Ast.Mul ])
                     (self (n / 2)) (self (n / 2)) );
                 ( 1,
                   map2
                     (fun a b -> L.Ast.Cmp (L.Ast.Le, a, b))
                     (self (n / 2)) (self (n / 2)) );
                 (1, map (fun a -> L.Ast.Paren a) (self (n - 1)));
                 (1, map (fun a -> L.Ast.Neg a) (self (n - 1)));
               ]))

let arbitrary_expr = QCheck.make ~print:(Fmt.str "%a" O.Ast_text.pp_expr) gen_expr

let eval_value expr =
  match (O.Eval.run [ { L.Ast.line = 1; expr } ]).O.Eval.statements with
  | [ { O.Eval.value; _ } ] -> value
  | _ -> Error "no statement"

let prop_pp_parse_roundtrip =
  QCheck.Test.make ~name:"pretty-print then parse preserves evaluation"
    ~count:300 arbitrary_expr (fun expr ->
      let printed = Fmt.str "%a" O.Ast_text.pp_expr expr in
      match L.Requirement.compile (printed ^ "\n") with
      | Error _ -> false
      | Ok [ st ] -> eval_value st.L.Ast.expr = eval_value expr
      | Ok _ -> false)

(* Canonicalization (Requirement.canonical / cache_key): the canonical
   form must be a fixpoint — it re-lexes to the same token stream — so a
   federation root can forward it to shard wizards and every compile
   cache in the tree keys the requirement identically. *)
let prop_canonical_fixpoint =
  QCheck.Test.make ~name:"canonical requirement text is a fixpoint"
    ~count:300 arbitrary_expr (fun expr ->
      let printed = Fmt.str "%a" O.Ast_text.pp_expr expr in
      let c = L.Requirement.canonical printed in
      String.equal c (L.Requirement.canonical c)
      && String.equal c (L.Requirement.cache_key printed))

let test_canonical_relexable () =
  let check_fix src =
    let c = L.Requirement.canonical src in
    Alcotest.(check string) ("fixpoint of " ^ String.escaped src) c
      (L.Requirement.canonical c)
  in
  List.iter check_fix
    [
      "host_cpu_free > 0.5";
      "host_cpu_free   >    0.50000";
      "x = 0.1\n\n# comment\ny = 123456789123456789123";
      "x = 3.14159265358979312";
      "x = 1" ^ String.make 400 '0' (* literal overflows to infinity *);
      "order_by = host_memory_free / 1024.000";
    ];
  (* formatting variants collapse to one key, and numbers render
     re-lexably (the old hex-float rendering was not) *)
  Alcotest.(check string) "whitespace and trailing zeros share a key"
    (L.Requirement.cache_key "host_cpu_free > 0.5")
    (L.Requirement.cache_key "host_cpu_free   >    0.50000");
  Alcotest.(check string) "canonical text"
    "host_cpu_free > 0.5"
    (L.Requirement.canonical "host_cpu_free>0.50000")

let test_canonical_compiles () =
  let src = "host_bogomips >= 250.250\norder_by = host_memory_free" in
  let c = L.Requirement.canonical src in
  (match L.Requirement.compile c with
  | Ok _ -> ()
  | Error e ->
    Alcotest.failf "canonical form does not compile: %a"
      L.Requirement.pp_compile_error e);
  Alcotest.(check string) "same key either way"
    (L.Requirement.cache_key src)
    (L.Requirement.cache_key c)

(* Canonical keys against the token-list reference
   ([Smart_oracle.Canonical]): byte-identical on every text that lexes,
   the text behind a NUL byte on every text that does not, and the same
   tokens and errors from [Lexer.next].  Texts are printed random
   expressions, or runs of fragments that reach every branch of the
   scanner and of the number rule: literals of up to 14, exactly 15,
   exactly 16 and 17 or more significant digits with leading and
   trailing zeros, and the literals that overflow, underflow and land
   on a subnormal. *)
let key_fragments =
  [
    "# comment"; "#x && y"; "\r"; "\n"; "\n\n"; "\r\n"; " "; "\t";
    "HOST_CPU_FREE"; "Order_By"; "SQRT"; "User_Denied_Host2";
    "Monitor_Network_BW"; "MyTemp"; "srvA1"; "x"; "host_cpu_free";
    "order_by"; "srv.example.org"; "Srv-1.Example.NET"; "a.b-c.";
    "10.0.0.1"; "192.168.001.020"; "&&"; "||"; ">"; ">="; "<"; "<="; "==";
    "!="; "="; "+"; "-"; "*"; "/"; "^"; "("; ")"; "007"; "0.50"; "00.000";
    "120.0"; "0.0012300"; "0"; "0."; "5.";
    "1" ^ String.make 400 '0';
    "0." ^ String.make 400 '0' ^ "1";
    "0." ^ String.make 319 '0' ^ "12345";
    "100000000000000000000000";
  ]

let broken_fragments = [ "&"; "|"; "!"; "a-b"; "1.2.3"; "1..2.3"; "1.2.3.4.5"; "@" ]

let gen_literal =
  QCheck.Gen.(
    let zeros = map (fun n -> String.make n '0') (int_range 0 3) in
    let* n =
      frequency
        [ (3, int_range 1 14); (2, return 15); (2, return 16); (2, int_range 17 25) ]
    in
    let* first = char_range '1' '9' in
    let* rest = string_size ~gen:numeral (return (n - 1)) in
    let d = String.make 1 first ^ rest in
    let* lz = zeros in
    let* tz = zeros in
    let* p = int_range 1 n in
    oneofl
      [
        lz ^ d ^ tz;
        lz ^ String.sub d 0 p ^ "." ^ String.sub d p (n - p) ^ tz;
        "0." ^ lz ^ d ^ tz;
        lz ^ d ^ ".";
      ])

let gen_key_text =
  QCheck.Gen.(
    let fragment =
      frequency
        [
          (12, oneofl key_fragments); (8, gen_literal); (1, oneofl broken_fragments);
        ]
    in
    let piece = map2 ( ^ ) fragment (oneofl [ ""; " "; " "; "\n"; "\t" ]) in
    frequency
      [
        (4, map (String.concat "") (list_size (int_range 0 12) piece));
        (1, map (Fmt.str "%a" O.Ast_text.pp_expr) gen_expr);
      ])

let arbitrary_key_text = QCheck.make ~print:String.escaped gen_key_text

let prop_cache_key_matches_reference =
  QCheck.Test.make ~name:"cache_key matches the token-list reference"
    ~count:2000 arbitrary_key_text (fun src ->
      let key = L.Requirement.cache_key src in
      match O.Canonical.cache_key src with
      | Some reference -> String.equal key reference
      | None -> String.equal key ("\000" ^ src))

let same_error (a : L.Parser.error) (b : L.Parser.error) =
  a.line = b.line && a.col = b.col && String.equal a.message b.message

let prop_tokenize_matches_reference =
  QCheck.Test.make ~name:"tokenize matches the token-list reference"
    ~count:1000 arbitrary_key_text (fun src ->
      let same_token (a : O.Canonical.located) (b : O.Canonical.located) =
        O.Canonical.token_equal a.O.Canonical.token b.O.Canonical.token
        && a.O.Canonical.line = b.O.Canonical.line
        && a.O.Canonical.col = b.O.Canonical.col
      in
      match (tokenize src, O.Canonical.tokenize src) with
      | Ok a, Ok b -> List.equal same_token a b
      | Error a, Error b -> same_error a b
      | Ok _, Error _ | Error _, Ok _ -> false)

(* The parser against the token-list parser it replaced
   ([Smart_oracle.Token_parser]): the same tree for every text that
   parses, the same error (line, column and message) for every text
   that does not.  Texts are lines of operands and operators drawn
   without regard to the grammar, nested through parentheses, calls and
   unary minus, so every precedence level meets every other, and
   assignment turns up where the grammar allows it and where it does
   not.  One text in two is then damaged: a fragment of the cache-key
   generator, lexable or not, is spliced in or a token dropped, so
   syntax errors meet later lexical ones. *)
let rec expr_equal (a : L.Ast.expr) (b : L.Ast.expr) =
  match (a, b) with
  | L.Ast.Number x, L.Ast.Number y -> Float.equal x y
  | L.Ast.Netaddr x, L.Ast.Netaddr y | L.Ast.Var x, L.Ast.Var y ->
    String.equal x y
  | L.Ast.Assign (x, e), L.Ast.Assign (y, f) | L.Ast.Call (x, e), L.Ast.Call (y, f)
    ->
    String.equal x y && expr_equal e f
  | L.Ast.Arith (o, a1, a2), L.Ast.Arith (p, b1, b2) ->
    o = p && expr_equal a1 b1 && expr_equal a2 b2
  | L.Ast.Cmp (o, a1, a2), L.Ast.Cmp (p, b1, b2) ->
    o = p && expr_equal a1 b1 && expr_equal a2 b2
  | L.Ast.Logic (o, a1, a2), L.Ast.Logic (p, b1, b2) ->
    o = p && expr_equal a1 b1 && expr_equal a2 b2
  | L.Ast.Neg e, L.Ast.Neg f | L.Ast.Paren e, L.Ast.Paren f -> expr_equal e f
  | ( ( L.Ast.Number _ | L.Ast.Netaddr _ | L.Ast.Var _ | L.Ast.Assign _
      | L.Ast.Arith _ | L.Ast.Cmp _ | L.Ast.Logic _ | L.Ast.Call _
      | L.Ast.Neg _ | L.Ast.Paren _ ),
      _ ) ->
    false

let program_equal (a : L.Ast.program) (b : L.Ast.program) =
  List.equal
    (fun (x : L.Ast.statement) (y : L.Ast.statement) ->
      x.line = y.line && expr_equal x.expr y.expr)
    a b

let parse_operands =
  [|
    "1"; "2.5"; "007"; "0."; "x"; "t1"; "host_cpu_free"; "HOST_Memory_Free";
    "10.0.0.7"; "srv.example.org"; "order_by"; "user_preferred_host1"; "sqrt";
  |]

let parse_operators =
  [| "||"; "&&"; "<"; "<="; ">"; ">="; "=="; "!="; "+"; "-"; "*"; "/"; "^"; "=" |]

let gen_parse_expr =
  QCheck.Gen.(
    fix
      (fun self depth ->
        let operand =
          if depth <= 0 then oneofa parse_operands
          else
            frequency
              [
                (6, oneofa parse_operands);
                (1, map (fun e -> "(" ^ e ^ ")") (self (depth - 1)));
                (1, map (fun e -> "log10(" ^ e ^ ")") (self (depth - 1)));
                (1, map (fun e -> "-" ^ e) (self (depth - 1)));
              ]
        in
        let* first = operand in
        let* rest = list_size (int_range 0 4) (pair (oneofa parse_operators) operand) in
        return
          (String.concat " " (first :: List.concat_map (fun (o, a) -> [ o; a ]) rest)))
      2)

let gen_parse_text =
  QCheck.Gen.(
    let* lines =
      list_size (int_range 1 4)
        (frequency [ (8, gen_parse_expr); (1, return ""); (1, return "# note") ])
    in
    let text = String.concat "\n" lines in
    let words = Array.of_list (String.split_on_char ' ' text) in
    let* at = int_bound (Array.length words) in
    let* damage =
      frequency
        [
          (2, return `None);
          (1, map (fun f -> `Insert f) (oneofl (key_fragments @ broken_fragments)));
          (1, return `Drop);
        ]
    in
    let words = Array.to_list words in
    return
      (String.concat " "
         (match damage with
         | `None -> words
         | `Insert f ->
           List.filteri (fun i _ -> i < at) words
           @ (f :: List.filteri (fun i _ -> i >= at) words)
         | `Drop -> List.filteri (fun i _ -> i <> at) words)))

let prop_parse_matches_reference =
  QCheck.Test.make ~name:"parse matches the token-list reference" ~count:2000
    (QCheck.make ~print:String.escaped gen_parse_text)
    (fun src ->
      match (L.Parser.parse src, O.Token_parser.parse src) with
      | Ok a, Ok b -> program_equal a b
      | Error a, Error b -> same_error a b
      | Ok _, Error _ | Error _, Ok _ -> false)

let prop_logic_flag_stable_under_parens =
  QCheck.Test.make ~name:"wrapping in parens never changes is_logical"
    ~count:300 arbitrary_expr (fun expr ->
      L.Ast.is_logical (L.Ast.Paren expr) = L.Ast.is_logical expr)

let prop_lexer_never_crashes =
  QCheck.Test.make ~name:"lexer totality on printable strings" ~count:500
    QCheck.(string_gen Gen.printable)
    (fun s -> match tokenize s with Ok _ | Error _ -> true)

(* ------------------------------------------------------------------ *)
(* Differential: bytecode interpreter vs the reference evaluator        *)
(* ------------------------------------------------------------------ *)

(* One server's worth of status data, as both sides see it: the
   bytecode gets it as a 1-server columnar snapshot, [Eval] as a
   variable binding.  Values are small integers so comparisons tie and
   divisions hit zero often. *)
type diff_env = {
  sys_vals : float array;  (* the 22 server-side columns *)
  net : (float * float) option;  (* delay, bandwidth (requirement units) *)
  sec : float option;
}

let gen_env =
  QCheck.Gen.(
    let small = map float_of_int (int_range (-2) 4) in
    map3
      (fun sys_vals net sec -> { sys_vals; net; sec })
      (array_repeat L.Bytecode.sys_field_count small)
      (opt (pair small small))
      (opt small))

let columns_of_env env =
  let cols = L.Bytecode.create_columns 1 in
  Array.iteri
    (fun field v -> Bigarray.Array2.set cols.L.Bytecode.sys field 0 v)
    env.sys_vals;
  (match env.net with
  | Some (delay, bw) ->
    Bigarray.Array1.set cols.L.Bytecode.has_net 0 1;
    Bigarray.Array1.set cols.L.Bytecode.net_delay 0 delay;
    Bigarray.Array1.set cols.L.Bytecode.net_bw 0 bw
  | None ->
    Bigarray.Array1.set cols.L.Bytecode.has_net 0 0;
    Bigarray.Array1.set cols.L.Bytecode.net_delay 0 0.0;
    Bigarray.Array1.set cols.L.Bytecode.net_bw 0 0.0);
  (match env.sec with
  | Some level ->
    Bigarray.Array1.set cols.L.Bytecode.has_sec 0 1;
    Bigarray.Array1.set cols.L.Bytecode.sec_level 0 level
  | None ->
    Bigarray.Array1.set cols.L.Bytecode.has_sec 0 0;
    Bigarray.Array1.set cols.L.Bytecode.sec_level 0 0.0);
  cols

(* The [Eval] binding equivalent to [columns_of_env]. *)
let lookup_of_env env name =
  match L.Bytecode.column_of_var name with
  | None -> None
  | Some c ->
    if c < L.Bytecode.sys_field_count then
      Some (O.Value.Num env.sys_vals.(c))
    else if c = L.Bytecode.col_net_delay then
      Option.map (fun (d, _) -> O.Value.Num d) env.net
    else if c = L.Bytecode.col_net_bw then
      Option.map (fun (_, b) -> O.Value.Num b) env.net
    else Option.map (fun s -> O.Value.Num s) env.sec

(* Expression generator exercising every construct the compiler
   translates: column variables (sometimes absent net/sec ones), temps
   that may be read before assignment, user parameters, addresses in
   arithmetic, faulting divisions, builtins, and assignments to
   read-only names — every fault path has to match byte-for-byte. *)
let diff_vars =
  [|
    "host_cpu_free";
    "host_memory_free";
    "host_system_load1";
    "host_disk_allreq";
    "monitor_network_delay";
    "monitor_network_bw";
    "host_security_level";
  |]

let gen_diff_expr =
  QCheck.Gen.(
    sized
    @@ fix (fun self n ->
           let leaf =
             frequency
               [
                 ( 3,
                   map
                     (fun f -> L.Ast.Number (float_of_int f))
                     (int_range (-2) 4) );
                 (3, map (fun v -> L.Ast.Var v) (oneofa diff_vars));
                 (1, return (L.Ast.Var "t1"));
                 (1, return (L.Ast.Var "scratch"));
                 (1, return (L.Ast.Netaddr "10.0.0.7"));
                 (1, return (L.Ast.Var "user_preferred_host1"));
               ]
           in
           if n <= 0 then leaf
           else
             frequency
               [
                 (2, leaf);
                 ( 4,
                   map3
                     (fun op a b -> L.Ast.Arith (op, a, b))
                     (oneofl
                        [ L.Ast.Add; L.Ast.Sub; L.Ast.Mul; L.Ast.Div; L.Ast.Pow ])
                     (self (n / 2)) (self (n / 2)) );
                 ( 3,
                   map3
                     (fun op a b -> L.Ast.Cmp (op, a, b))
                     (oneofl
                        [ L.Ast.Lt; L.Ast.Le; L.Ast.Gt; L.Ast.Ge; L.Ast.Eq; L.Ast.Ne ])
                     (self (n / 2)) (self (n / 2)) );
                 ( 2,
                   map3
                     (fun op a b -> L.Ast.Logic (op, a, b))
                     (oneofl [ L.Ast.And; L.Ast.Or ])
                     (self (n / 2)) (self (n / 2)) );
                 ( 1,
                   map2
                     (fun f a -> L.Ast.Call (f, a))
                     (oneofl [ "sqrt"; "log"; "abs"; "int" ])
                     (self (n - 1)) );
                 (1, map (fun a -> L.Ast.Neg a) (self (n - 1)));
                 (1, map (fun a -> L.Ast.Paren a) (self (n - 1)));
                 ( 2,
                   map2
                     (fun v a -> L.Ast.Assign (v, a))
                     (oneofl
                        [
                          "t1";
                          "scratch";
                          "order_by";
                          "user_preferred_host2";
                          "user_denied_host1";
                          "host_cpu_free";
                        ])
                     (self (n - 1)) );
               ]))

let gen_diff_program =
  QCheck.Gen.(
    map
      (List.mapi (fun i expr -> { L.Ast.line = i + 1; expr }))
      (list_size (int_range 1 5) gen_diff_expr))

let arbitrary_diff_case =
  QCheck.make
    ~print:(fun (prog, env) ->
      Fmt.str "%s@.sys=%a net=%a sec=%a" (O.Ast_text.program_to_string prog)
        Fmt.(array ~sep:comma float)
        env.sys_vals
        Fmt.(option (pair float float))
        env.net
        Fmt.(option float)
        env.sec)
    QCheck.Gen.(pair gen_diff_program gen_env)

(* Equality over outcomes that treats NaN as equal to itself (both
   evaluators compute with the same OCaml floats, so NaN payloads never
   diverge in any way [=] could see). *)
let float_eq a b = (Float.is_nan a && Float.is_nan b) || a = b

let value_eq a b =
  match (a, b) with
  | O.Value.Num x, O.Value.Num y -> float_eq x y
  | O.Value.Addr x, O.Value.Addr y -> String.equal x y
  | _ -> false

let result_eq a b =
  match (a, b) with
  | Ok x, Ok y -> value_eq x y
  | Error x, Error y -> String.equal x y
  | _ -> false

let outcome_eq (a : O.Eval.outcome) (b : O.Eval.outcome) =
  a.qualified = b.qualified
  && List.length a.statements = List.length b.statements
  && List.for_all2
       (fun (x : O.Eval.statement_result) (y : O.Eval.statement_result) ->
         x.line = y.line && x.logical = y.logical && result_eq x.value y.value)
       a.statements b.statements
  && List.length a.uparams = List.length b.uparams
  && List.for_all2
       (fun (n, v) (m, w) -> String.equal n m && value_eq v w)
       a.uparams b.uparams
  && List.length a.faults = List.length b.faults
  && List.for_all2
       (fun (x : O.Eval.fault) (y : O.Eval.fault) ->
         x.line = y.line && String.equal x.message y.message)
       a.faults b.faults

let prop_bytecode_matches_eval =
  QCheck.Test.make
    ~name:"bytecode run agrees with Eval on random programs" ~count:1000
    arbitrary_diff_case
    (fun (prog_ast, env) ->
      let reference = O.Eval.run ~lookup:(lookup_of_env env) prog_ast in
      let prog = L.Compile.program prog_ast in
      let state = L.Bytecode.make_state prog in
      L.Bytecode.run prog state (columns_of_env env) ~server:0;
      outcome_eq reference (O.Eval.of_bytecode prog state))

(* The statement-major sweep plan against the scalar interpreter, over
   multi-server snapshots: qualification verdicts and order keys must
   agree on every server, including servers whose net/sec columns have
   no data, whether the plan runs in one pass or block by block; and on
   every qualified server the plan's constant host log must be the
   uparam log the interpreter left. *)
let sweep_cols =
  [|
    "host_cpu_free";
    "host_memory_free";
    "host_system_load1";
    "monitor_network_delay";
    "monitor_network_bw";
    "host_security_level";
  |]

let gen_sweep_program =
  QCheck.Gen.(
    let cmp_stmt =
      map3
        (fun op v c -> L.Ast.Cmp (op, L.Ast.Var v, L.Ast.Number (float_of_int c)))
        (oneofl [ L.Ast.Lt; L.Ast.Le; L.Ast.Gt; L.Ast.Ge; L.Ast.Eq; L.Ast.Ne ])
        (oneofa sweep_cols) (int_range (-1) 3)
    in
    let order_stmt =
      map (fun v -> L.Ast.Assign ("order_by", L.Ast.Var v)) (oneofa sweep_cols)
    in
    (* a host by name or by IP, preferred or denied *)
    let host_stmt =
      map2
        (fun param host -> L.Ast.Assign (param, host))
        (oneofl
           [ "user_preferred_host1"; "user_preferred_host3"; "user_denied_host1";
             "user_denied_host2" ])
        (oneofl
           [ L.Ast.Var "alpha"; L.Ast.Var "beta"; L.Ast.Netaddr "10.0.0.1";
             L.Ast.Netaddr "10.0.0.2" ])
    in
    map3
      (fun cmps order hosts ->
        (* host lines go before, between or after the compares *)
        let mixed =
          List.fold_left
            (fun acc (at, h) ->
              let at = at mod (List.length acc + 1) in
              List.filteri (fun i _ -> i < at) acc
              @ (h :: List.filteri (fun i _ -> i >= at) acc))
            cmps hosts
        in
        List.mapi
          (fun i expr -> { L.Ast.line = i + 1; expr })
          (mixed @ Option.to_list order))
      (list_size (int_range 1 4) cmp_stmt)
      (opt order_stmt)
      (list_size (int_range 0 3) (pair nat host_stmt)))

let columns_of_envs envs =
  let n = Array.length envs in
  let cols = L.Bytecode.create_columns n in
  Array.iteri
    (fun s env ->
      Array.iteri
        (fun field v -> Bigarray.Array2.set cols.L.Bytecode.sys field s v)
        env.sys_vals;
      (match env.net with
      | Some (delay, bw) ->
        Bigarray.Array1.set cols.L.Bytecode.has_net s 1;
        Bigarray.Array1.set cols.L.Bytecode.net_delay s delay;
        Bigarray.Array1.set cols.L.Bytecode.net_bw s bw
      | None ->
        Bigarray.Array1.set cols.L.Bytecode.has_net s 0;
        Bigarray.Array1.set cols.L.Bytecode.net_delay s 0.0;
        Bigarray.Array1.set cols.L.Bytecode.net_bw s 0.0);
      match env.sec with
      | Some level ->
        Bigarray.Array1.set cols.L.Bytecode.has_sec s 1;
        Bigarray.Array1.set cols.L.Bytecode.sec_level s level
      | None ->
        Bigarray.Array1.set cols.L.Bytecode.has_sec s 0;
        Bigarray.Array1.set cols.L.Bytecode.sec_level s 0.0)
    envs;
  cols

let arbitrary_sweep_case =
  QCheck.make
    ~print:(fun (prog, envs, block) ->
      Fmt.str "%s@.%d servers, blocks of %d" (O.Ast_text.program_to_string prog)
        (Array.length envs) block)
    QCheck.Gen.(
      triple gen_sweep_program
        (array_size (int_range 1 8) gen_env)
        (int_range 1 8))

let prop_sweep_matches_run =
  QCheck.Test.make
    ~name:"sweep plan agrees with the interpreter on every server"
    ~count:500 arbitrary_sweep_case
    (fun (prog_ast, envs, block) ->
      let prog = L.Compile.program prog_ast in
      match L.Bytecode.sweep_of prog with
      | None ->
        QCheck.Test.fail_report "sweep-shaped program produced no plan"
      | Some sw ->
        let n = Array.length envs in
        let cols = columns_of_envs envs in
        let qualified = Bytes.make n '\000' in
        let order = Array.make n 0.0 in
        L.Bytecode.run_sweep sw cols ~lo:0 ~hi:n ~qualified ~order;
        let bqualified = Bytes.make n '\000' in
        let border = Array.make n 0.0 in
        let lo = ref 0 in
        while !lo < n do
          let hi = min n (!lo + block) in
          L.Bytecode.run_sweep sw cols ~lo:!lo ~hi ~qualified:bqualified
            ~order:border;
          lo := hi
        done;
        let log = L.Bytecode.sweep_hosts sw in
        let state = L.Bytecode.make_state prog in
        let log_agrees () =
          state.L.Bytecode.ulog_len = Array.length log.L.Bytecode.slots
          && List.for_all
               (fun k ->
                 state.L.Bytecode.ulog_slot.(k) = log.L.Bytecode.slots.(k)
                 && state.L.Bytecode.ulog_tag.(k) = log.L.Bytecode.tags.(k))
               (List.init state.L.Bytecode.ulog_len Fun.id)
        in
        let agree s =
          L.Bytecode.run prog state cols ~server:s;
          let ref_ok = L.Bytecode.qualified prog state in
          let ref_key =
            if state.L.Bytecode.order_found then
              state.L.Bytecode.order_val.(0)
            else Float.neg_infinity
          in
          ref_ok = (Bytes.get qualified s <> '\000')
          && Bytes.get qualified s = Bytes.get bqualified s
          && ((not prog.L.Bytecode.has_order_by)
             || (float_eq ref_key order.(s) && float_eq ref_key border.(s)))
          && ((not ref_ok) || log_agrees ())
        in
        let ok = ref true in
        for s = 0 to n - 1 do
          ok := !ok && agree s
        done;
        !ok)

(* The bytecode verifier against the compiler: every compiled program
   must verify (soundness of NUMCHK elision, register allocation and
   fault-path dead code included), and corrupting any single code cell
   must be caught (every operand domain is far below the smash value,
   and an opcode cell becomes an unknown opcode). *)
let prop_verify_accepts_compiled =
  QCheck.Test.make
    ~name:"Bytecode.verify accepts every compiled program" ~count:1000
    (QCheck.make ~print:O.Ast_text.program_to_string gen_diff_program)
    (fun prog_ast ->
      let p = L.Compile.program prog_ast in
      match L.Bytecode.verify p with
      | Ok () -> true
      | Error e ->
        QCheck.Test.fail_reportf "compiled program rejected: %s"
          (L.Bytecode.verify_error_to_string e))

let prop_verify_rejects_smashed =
  QCheck.Test.make
    ~name:"Bytecode.verify rejects any smashed code cell" ~count:500
    (QCheck.make
       ~print:(fun (prog, i) ->
         Fmt.str "%s@.cell seed %d" (O.Ast_text.program_to_string prog) i)
       QCheck.Gen.(pair gen_diff_program (int_bound 10_000)))
    (fun (prog_ast, i) ->
      let p = L.Compile.program prog_ast in
      let code = Array.copy p.L.Bytecode.code in
      let cell = i mod Array.length code in
      code.(cell) <- 10_000_000;
      match L.Bytecode.verify { p with L.Bytecode.code } with
      | Error _ -> true
      | Ok () ->
        QCheck.Test.fail_reportf "smashed cell %d went unnoticed" cell)

(* Hand-built single-statement programs hitting each verifier judgment
   the generator cannot reach (Compile never emits these shapes). *)
let mk_broken_prog ?(nregs = 3) ?(consts = [| 1.0 |]) ?(pool = [||])
    ?(ntemps = 0) ?(nulog = 0) ?(has_uparams = false) ?(stmt_reg = 0) code =
  {
    L.Bytecode.code;
    stmt_start = [| 0 |];
    stmt_stop = [| Array.length code |];
    stmt_reg = [| stmt_reg |];
    stmt_line = [| 1 |];
    stmt_logical = [| true |];
    stmt_order_by = [| false |];
    consts;
    pool;
    fns = [||];
    nregs;
    ntemps;
    nulog;
    has_uparams;
    has_order_by = false;
  }

let expect_reject name p =
  match L.Bytecode.verify p with
  | Error _ -> ()
  | Ok () -> Alcotest.failf "%s: verifier accepted a corrupt program" name

let test_verify_rejects_handmade () =
  (* CONST r0; ADD r2 <- r0 + r1 with r1's init dropped *)
  expect_reject "dropped init"
    (mk_broken_prog ~stmt_reg:2 [| 0; 0; 0; 4; 2; 0; 1 |]);
  (* ADDR r0; NEG r1 <- -r0: an address into arithmetic, no NUMCHK *)
  expect_reject "missing numchk"
    (mk_broken_prog ~pool:[| "10.0.0.7" |] ~stmt_reg:1 [| 1; 0; 0; 9; 1; 0 |]);
  (* CONST r0 but the statement's declared result register is r2 *)
  expect_reject "unwritten result"
    (mk_broken_prog ~stmt_reg:2 [| 0; 0; 0 |]);
  (* SETU with has_uparams = false: the per-run uset reset would be
     skipped and parameters would leak across servers *)
  expect_reject "setu without uparams"
    (mk_broken_prog ~nulog:1 ~stmt_reg:0 [| 0; 0; 0; 17; 0; 0 |]);
  (* constant index past the pool *)
  expect_reject "operand bounds" (mk_broken_prog ~stmt_reg:0 [| 0; 0; 5 |]);
  (* and the minimal well-formed slice is accepted *)
  match L.Bytecode.verify (mk_broken_prog ~stmt_reg:0 [| 0; 0; 0 |]) with
  | Ok () -> ()
  | Error e ->
    Alcotest.failf "well-formed program rejected: %s"
      (L.Bytecode.verify_error_to_string e)

(* The sweep precondition, one refused shape per case.  Each program is
   a CMPC statement [sweep_of] admits plus one instruction outside every
   statement slice, where the structural and dataflow passes never look
   and the plan would drop it: the whole-code walk must refuse it. *)
let sweep_admitted extra =
  let cmpc = [| 20; 0; 2; 0; 0; 0 |] (* host_cpu_free > 1 *) in
  {
    (mk_broken_prog ~pool:[| "undefined variable host_cpu_free"; "alpha" |]
       ~ntemps:1 ~stmt_reg:0 (Array.append cmpc extra))
    with
    L.Bytecode.stmt_stop = [| 6 |];
  }

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.equal (String.sub s i m) sub || at (i + 1)) in
  at 0

let expect_sweep_refusal name extra =
  let p = sweep_admitted extra in
  if L.Bytecode.sweep_of p = None then
    Alcotest.failf "%s: the plan should admit the program" name;
  match L.Bytecode.verify p with
  | Error e when contains e.L.Bytecode.reason "sweep plan" -> ()
  | Error e ->
    Alcotest.failf "%s: refused for another reason: %s" name
      (L.Bytecode.verify_error_to_string e)
  | Ok () -> Alcotest.failf "%s: verifier accepted dropped traffic" name

let test_verify_sweep_preconditions () =
  (match L.Bytecode.verify (sweep_admitted [||]) with
  | Ok () -> ()
  | Error e ->
    Alcotest.failf "bare plan rejected: %s" (L.Bytecode.verify_error_to_string e));
  expect_sweep_refusal "GETU" [| 16; 0; 0; 0 |];
  expect_sweep_refusal "LOADT" [| 14; 0; 0; 0 |];
  expect_sweep_refusal "UVAR" [| 18; 0; 0; 1 |];
  (* SETU logging the CMPC's verdict register, not an ADDR of its own *)
  expect_sweep_refusal "foreign SETU" [| 17; 5; 0 |];
  let compiled src =
    let p = L.Compile.program (compile src) in
    match L.Bytecode.verify p with
    | Ok () -> p
    | Error e ->
      Alcotest.failf "%S rejected: %s" src (L.Bytecode.verify_error_to_string e)
  in
  (* constant host lists ride the plan, and verify *)
  let hosts =
    compiled
      "host_cpu_free > 0.5\nuser_denied_host1 = 10.0.0.7\n\
       user_preferred_host2 = alpha\n"
  in
  (match L.Bytecode.sweep_of hosts with
  | None -> Alcotest.fail "constant host lists fell off the plan"
  | Some sw ->
    let log = L.Bytecode.sweep_hosts sw in
    Alcotest.(check (array int)) "slots" [| 5; 1 |] log.L.Bytecode.slots;
    Alcotest.(check (list string)) "entries" [ "10.0.0.7"; "alpha" ]
      (List.map
         (fun t -> hosts.L.Bytecode.pool.(t))
         (Array.to_list log.L.Bytecode.tags)));
  (* a host named through a bound temp (UVAR) or a user parameter read
     (GETU) keeps the interpreter *)
  List.iter
    (fun src ->
      if L.Bytecode.sweep_of (compiled src) <> None then
        Alcotest.failf "plan admitted %S" src)
    [
      "host_cpu_free > 0.5\ns2 = 1\nuser_preferred_host1 = s2\n";
      "user_preferred_host1 = alpha\nx = user_preferred_host1\n";
    ]

(* [Bytecode.validate] on its own.  [verify] runs it before the dataflow
   pass, which could mask a bounds check the structural walk lost, so
   these go through [validate] alone and check that it names what it
   refused. *)
type operand = Reg | Const | Pool | Temp | Uparam | Column | Fn | Sub

(* The operands after each opcode (the table in bytecode.ml). *)
let operands = function
  | 0 -> [ Reg; Const ]
  | 1 -> [ Reg; Pool ]
  | 2 -> [ Reg; Column; Pool ]
  | 3 -> [ Reg ]
  | 4 | 5 | 6 | 7 | 8 | 12 | 13 -> [ Reg; Reg; Reg ]
  | 9 -> [ Reg; Reg ]
  | 10 -> [ Reg; Fn; Pool; Reg ]
  | 11 -> [ Reg; Sub; Reg; Reg ]
  | 14 | 18 -> [ Reg; Temp; Pool ]
  | 15 -> [ Temp; Reg ]
  | 16 -> [ Reg; Uparam; Pool ]
  | 17 -> [ Uparam; Reg ]
  | 19 -> [ Pool ]
  | 20 -> [ Reg; Sub; Column; Pool; Const ]
  | op -> Alcotest.failf "opcode %d in a compiled program" op

(* The first value past the operand's domain, and what [validate] calls
   the operand. *)
let past (p : L.Bytecode.program) = function
  | Reg -> (p.nregs, "register")
  | Const -> (Array.length p.consts, "constant index")
  | Pool -> (Array.length p.pool, "pool index")
  | Temp -> (p.ntemps, "temp")
  | Uparam -> (List.length L.Vars.user_side, "uparam")
  | Column -> (L.Bytecode.col_sec_level + 1, "column")
  | Fn -> (Array.length p.fns, "function index")
  | Sub -> (6, "comparison sub-opcode")

(* Every operand cell of a program, with its kind. *)
let operand_cells (p : L.Bytecode.program) =
  let cells = ref [] in
  Array.iteri
    (fun s start ->
      let pc = ref start in
      while !pc < p.stmt_stop.(s) do
        let kinds = operands p.code.(!pc) in
        List.iteri (fun k kind -> cells := (!pc + 1 + k, kind) :: !cells) kinds;
        pc := !pc + 1 + List.length kinds
      done)
    p.stmt_start;
  Array.of_list (List.rev !cells)

(* Programs for the property below: a random program behind one fused
   [column CMP constant] statement, so the CMPC operands get smashed as
   often as the others. *)
let gen_validate_program =
  QCheck.Gen.(
    let* prog = gen_diff_program in
    let* op = oneofl [ L.Ast.Lt; L.Ast.Le; L.Ast.Gt; L.Ast.Ge; L.Ast.Eq; L.Ast.Ne ] in
    let* var = map (fun v -> L.Ast.Var v) (oneofa diff_vars) in
    let* number = map (fun f -> L.Ast.Number (float_of_int f)) (int_range 0 4) in
    let* swapped = bool in
    let fused =
      if swapped then L.Ast.Cmp (op, number, var) else L.Ast.Cmp (op, var, number)
    in
    return ({ L.Ast.line = 1; expr = fused } :: prog))

let expect_invalid name ~says p =
  match L.Bytecode.validate p with
  | () -> QCheck.Test.fail_reportf "%s: validate accepted it" name
  | exception Invalid_argument msg when contains msg says -> true
  | exception Invalid_argument msg ->
    QCheck.Test.fail_reportf "%s: refused for another reason: %s" name msg

let prop_validate_names_smashed_operand =
  QCheck.Test.make
    ~name:"Bytecode.validate names an operand set past its domain" ~count:1000
    (QCheck.make
       ~print:(fun (prog, (i, below)) ->
         Fmt.str "%s@.operand %d, %s" (O.Ast_text.program_to_string prog) i
           (if below then "below" else "past"))
       QCheck.Gen.(pair gen_validate_program (pair (int_bound 10_000) bool)))
    (fun (prog_ast, (i, below)) ->
      let p = L.Compile.program prog_ast in
      let cells = operand_cells p in
      let n = Array.length cells + L.Bytecode.nstmts p in
      let i = i mod n in
      if i < Array.length cells then begin
        let cell, kind = cells.(i) in
        let bound, word = past p kind in
        let code = Array.copy p.code in
        code.(cell) <- (if below then -1 else bound);
        expect_invalid (Fmt.str "%s at cell %d" word cell) ~says:word
          { p with code }
      end
      else begin
        (* the statement's slice ends inside its last instruction *)
        let s = i - Array.length cells in
        let stmt_stop = Array.copy p.stmt_stop in
        stmt_stop.(s) <- stmt_stop.(s) - 1;
        expect_invalid
          (Fmt.str "statement %d cut short" s)
          ~says:"truncated instruction" { p with stmt_stop }
      end)

(* The whole-program judgments, which [Compile] never trips. *)
let test_validate_whole_program () =
  let check name ~says p =
    match L.Bytecode.validate p with
    | () -> Alcotest.failf "%s: validate accepted it" name
    | exception Invalid_argument msg ->
      if not (contains msg says) then
        Alcotest.failf "%s: refused for another reason: %s" name msg
  in
  let setu = [| 0; 0; 0; 17; 0; 0 |] (* CONST r0; SETU u0 r0 *) in
  check "ragged statement arrays" ~says:"ragged statement arrays"
    { (mk_broken_prog [| 0; 0; 0 |]) with L.Bytecode.stmt_line = [||] };
  check "slice past the code" ~says:"bad statement slice"
    { (mk_broken_prog [| 0; 0; 0 |]) with L.Bytecode.stmt_stop = [| 4 |] };
  check "SETU without has_uparams" ~says:"has_uparams is false"
    (mk_broken_prog ~nulog:1 setu);
  check "uparam log too small" ~says:"uparam log holds 0 entries"
    (mk_broken_prog ~has_uparams:true setu);
  L.Bytecode.validate (mk_broken_prog ~nulog:1 ~has_uparams:true setu)

let () =
  Alcotest.run "smart_lang"
    [
      ( "lexer",
        [
          Alcotest.test_case "numbers" `Quick test_lex_numbers;
          Alcotest.test_case "dotted quad" `Quick test_lex_netaddr_quad;
          Alcotest.test_case "dotted hostname" `Quick test_lex_netaddr_hostname;
          Alcotest.test_case "hyphen identifier rejected" `Quick
            test_lex_hyphen_identifier_rejected;
          Alcotest.test_case "subtraction" `Quick
            test_lex_identifier_vs_subtraction;
          Alcotest.test_case "comments/whitespace" `Quick
            test_lex_comments_and_whitespace;
          Alcotest.test_case "operators" `Quick test_lex_operators;
          Alcotest.test_case "bad ampersand" `Quick test_lex_bad_ampersand;
          Alcotest.test_case "malformed quad" `Quick test_lex_malformed_quad;
          Alcotest.test_case "positions" `Quick test_lex_positions;
        ] );
      ( "parser",
        [
          Alcotest.test_case "precedence" `Quick test_parse_precedence;
          Alcotest.test_case "builtin calls" `Quick test_parse_builtin_call;
          Alcotest.test_case "error position" `Quick test_parse_error_reported;
          Alcotest.test_case "lexical error wins" `Quick
            test_parse_lexical_error_wins;
          Alcotest.test_case "unbalanced paren" `Quick
            test_parse_unbalanced_paren;
          Alcotest.test_case "multi-line programs" `Quick test_parse_multiline;
          Alcotest.test_case "statement lines" `Quick test_parse_statement_lines;
        ] );
      ("logic flag", [ Alcotest.test_case "yacc semantics" `Quick test_logic_flag ]);
      ( "evaluator",
        [
          Alcotest.test_case "conjunction" `Quick test_qualification_conjunction;
          Alcotest.test_case "empty program" `Quick test_empty_program_qualifies;
          Alcotest.test_case "temp variables" `Quick test_temp_variables;
          Alcotest.test_case "undefined in logical" `Quick
            test_undefined_in_logical_is_false;
          Alcotest.test_case "fault recorded" `Quick
            test_undefined_fault_recorded;
          Alcotest.test_case "division by zero" `Quick test_division_by_zero;
          Alcotest.test_case "server vars read-only" `Quick
            test_assign_to_server_var_fault;
          Alcotest.test_case "server bindings" `Quick test_server_binding;
          Alcotest.test_case "no short circuit" `Quick test_no_short_circuit;
          Alcotest.test_case "user params collected" `Quick
            test_uparams_collected;
          Alcotest.test_case "bare hostname param" `Quick
            test_uparam_bare_hostname;
          Alcotest.test_case "assignment in conjunction" `Quick
            test_uparam_assignment_inside_conjunction;
          Alcotest.test_case "address comparisons" `Quick
            test_address_comparisons;
          Alcotest.test_case "thesis sample requirement" `Quick
            test_thesis_sample_requirement;
          Alcotest.test_case "meaningless statement" `Quick
            test_meaningless_statement;
        ] );
      ( "vars/builtins",
        [
          Alcotest.test_case "counts" `Quick test_vars_counts;
          Alcotest.test_case "classification" `Quick test_vars_classification;
          Alcotest.test_case "builtins" `Quick test_builtins_present;
          Alcotest.test_case "domain fault" `Quick test_builtin_domain_fault;
          Alcotest.test_case "unbound variables" `Quick test_unbound_variables;
        ] );
      ( "edge cases",
        [
          Alcotest.test_case "numbers" `Quick test_edge_numbers;
          Alcotest.test_case "assignment chain" `Quick
            test_edge_assignment_chain;
          Alcotest.test_case "assign to builtin" `Quick
            test_edge_assign_to_builtin;
          Alcotest.test_case "numeric host param ignored" `Quick
            test_edge_uparam_numeric_value_ignored;
          Alcotest.test_case "deep nesting" `Quick test_edge_deep_nesting;
          Alcotest.test_case "long program" `Quick test_edge_long_program;
          Alcotest.test_case "CRLF / trailing line" `Quick
            test_edge_crlf_and_trailing;
          Alcotest.test_case "comparison chain" `Quick
            test_edge_comparison_chain;
          Alcotest.test_case "address arithmetic faults" `Quick
            test_edge_netaddr_in_arith_faults;
        ] );
      ( "canonical",
        [
          Alcotest.test_case "re-lexable fixpoint" `Quick
            test_canonical_relexable;
          Alcotest.test_case "compiles and shares keys" `Quick
            test_canonical_compiles;
        ] );
      ( "verifier",
        [
          Alcotest.test_case "rejects hand-corrupted programs" `Quick
            test_verify_rejects_handmade;
          Alcotest.test_case "sweep plan drops no traffic" `Quick
            test_verify_sweep_preconditions;
          Alcotest.test_case "validate refuses whole-program faults" `Quick
            test_validate_whole_program;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_pp_parse_roundtrip;
            prop_canonical_fixpoint;
            prop_cache_key_matches_reference;
            prop_tokenize_matches_reference;
            prop_parse_matches_reference;
            prop_logic_flag_stable_under_parens;
            prop_lexer_never_crashes;
            prop_bytecode_matches_eval;
            prop_sweep_matches_run;
            prop_verify_accepts_compiled;
            prop_verify_rejects_smashed;
            prop_validate_names_smashed_operand;
          ] );
    ]
