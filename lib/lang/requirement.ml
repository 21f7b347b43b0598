(* Front door of the requirement language: canonical cache keys,
   parsing, and compilation to the bytecode form the wizard runs per
   server. *)

type compile_error = { line : int; col : int; message : string }

let pp_compile_error ppf e =
  Fmt.pf ppf "requirement error at %d:%d: %s" e.line e.col e.message

(* Number rendering for the canonical form.  The grammar only admits
   [digits] or [digits.digits] — no sign, no exponent, no hex — so the
   canonical spelling must re-lex under those rules (the federation root
   forwards canonical source to shard wizards, where it is tokenized
   again; [canonical] must be a fixpoint).  The shortest fixed-point
   decimal with that shape is found by widening the fractional precision
   until the float round-trips.  Values are never negative or NaN (the
   lexer cannot produce them); a literal long enough to overflow renders
   as 1 followed by 309 zeros, the smallest such spelling of infinity. *)
let render_number f =
  if f = infinity then "1" ^ String.make 309 '0'
  else begin
    let rec fit p =
      let s = Printf.sprintf "%.*f" p f in
      (* %.*f never switches to exponent notation, and 17 significant
         digits always round-trip a double, so this terminates: by
         p = 350 even the smallest subnormal has all of them *)
      if p > 350 || float_of_string s = f then s else fit (p + 1)
    in
    fit 0
  end

(* Key under which a compiled program may be cached: the token stream
   rendered back to a canonical spelling.  Whitespace runs collapse to
   one space, blank lines and comments vanish, numbers print as the
   shortest re-lexable decimal, and reserved words are already
   case-folded by the lexer — so trivially-different spellings of the
   same requirement share one cache entry.  Statement structure (the
   newlines) is preserved, and two sources with equal keys select
   identically: they differ at most in source line numbers, which only
   reach fault diagnostics.  A source that does not lex falls back to
   trimming (it will not compile either, and the error is cached under
   that key).

   The rendering is idempotent — canonicalizing a canonical form changes
   nothing — so every wizard in a federation tree derives the same key
   whether it sees the user's spelling or a canonical form forwarded by
   the root. *)
let render_token = function
  | Token.Number f -> render_number f
  | Token.Netaddr s | Token.Ident s -> s
  | Token.And -> "&&"
  | Token.Or -> "||"
  | Token.Gt -> ">"
  | Token.Ge -> ">="
  | Token.Lt -> "<"
  | Token.Le -> "<="
  | Token.Eq -> "=="
  | Token.Ne -> "!="
  | Token.Assign -> "="
  | Token.Plus -> "+"
  | Token.Minus -> "-"
  | Token.Star -> "*"
  | Token.Slash -> "/"
  | Token.Caret -> "^"
  | Token.Lparen -> "("
  | Token.Rparen -> ")"
  | Token.Newline | Token.Eof -> ""

let cache_key src =
  match Lexer.tokenize src with
  | Error _ -> String.trim src
  | Ok tokens ->
    let buf = Buffer.create (String.length src) in
    let line_has_content = ref false in
    List.iter
      (fun { Token.token; _ } ->
        match token with
        | Token.Eof -> ()
        | Token.Newline ->
          if !line_has_content then begin
            Buffer.add_char buf '\n';
            line_has_content := false
          end
        | tok ->
          if !line_has_content then Buffer.add_char buf ' ';
          Buffer.add_string buf (render_token tok);
          line_has_content := true)
      tokens;
    let s = Buffer.contents buf in
    let n = String.length s in
    if n > 0 && s.[n - 1] = '\n' then String.sub s 0 (n - 1) else s

(* The canonical requirement source — the same string [cache_key]
   returns.  Exposed under its own name for the federation path: the
   root canonicalizes once and forwards this form in subqueries, so the
   compile caches of root and every regional wizard share one key per
   distinct requirement regardless of the user's spelling. *)
let canonical = cache_key

let compile src : (Ast.program, compile_error) result =
  match Parser.parse src with
  | Ok program -> Ok program
  | Error e ->
    Error
      { line = e.Parser.line; col = e.Parser.col; message = e.Parser.message }

(* The wizard's hot-path form: parsed, compiled to bytecode, with a
   preallocated interpreter state that selection reuses across servers
   and requests (the wizard caches [fast] values in its compile LRU),
   the sweep plan when the program has that shape, and whether it names
   preferred hosts — the one thing besides [order_by] that keeps a scan
   from stopping at its cut. *)
type fast = {
  prog : Bytecode.program;
  state : Bytecode.state;
  sweep : Bytecode.sweep option;
  prefers : bool;
}

let compile_fast src : (fast, compile_error) result =
  match compile src with
  | Error e -> Error e
  | Ok ast ->
    let prog = Compile.program ast in
    Ok
      {
        prog;
        state = Bytecode.make_state prog;
        sweep = Bytecode.sweep_of prog;
        prefers = Bytecode.sets_preferred prog;
      }

(* The variable names a program reads that are neither server-side,
   user-side, built-in, nor locally assigned: candidates for typos.  Used
   by the client library to warn before a request is sent. *)
let unbound_variables (program : Ast.program) =
  let assigned = Hashtbl.create 8 in
  let unknown = ref [] in
  let note name =
    if
      (not (Vars.is_server_side name))
      && (not (Vars.is_user_side name))
      && (not (Builtins.is_builtin name))
      && (not (Hashtbl.mem assigned name))
      && not (List.mem name !unknown)
    then unknown := name :: !unknown
  in
  let rec scan (e : Ast.expr) =
    match e with
    | Ast.Number _ | Ast.Netaddr _ -> ()
    | Ast.Var name -> note name
    | Ast.Assign (name, rhs) ->
      (* a bare identifier assigned to a user param is a host name *)
      (match rhs with
      | Ast.Var _ when Vars.is_user_side name -> ()
      | _ -> scan rhs);
      Hashtbl.replace assigned name ()
    | Ast.Arith (_, a, b) | Ast.Cmp (_, a, b) | Ast.Logic (_, a, b) ->
      scan a;
      scan b
    | Ast.Call (_, a) | Ast.Neg a | Ast.Paren a -> scan a
  in
  List.iter (fun (st : Ast.statement) -> scan st.Ast.expr) program;
  List.rev !unknown
