(* Front door of the requirement language: canonical cache keys,
   parsing, and compilation to the bytecode form the wizard runs per
   server.  The wizard derives a key on every request, so [cache_key]
   is one pass of the lexer's scanner over the text, written straight
   into one buffer: no token list, and the [%.*f] number search only
   for literals the digit rule below cannot spell. *)

type compile_error = { line : int; col : int; message : string }

let pp_compile_error ppf e =
  Fmt.pf ppf "requirement error at %d:%d: %s" e.line e.col e.message

(* Number rendering for the canonical form.  The grammar only admits
   [digits] or [digits.digits] — no sign, no exponent, no hex — so the
   canonical spelling must re-lex under those rules (the federation root
   forwards canonical source to shard wizards, where it is tokenized
   again; [canonical] must be a fixpoint).  The spelling is the shortest
   fixed-point decimal that parses back to the literal's float: the
   [%.*f] rendering at the smallest fractional precision that
   round-trips.  Values are never negative or NaN (the lexer cannot
   produce them); a literal long enough to overflow renders as 1
   followed by 309 zeros, the smallest such spelling of infinity. *)
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

(* Most literals skip that search: the shortest spelling is the literal
   itself, normalized (leading integer zeros, trailing fractional zeros
   and a bare trailing point dropped), when two guards hold.
   - At most 15 significant digits, counted from the first non-zero
     digit through the last digit kept: trailing integer zeros count,
     so 1e23 spelled in full (24 digits) is not taken, and indeed
     prints as 99999999999999991611392.  Any decimal of at most 15
     significant digits survives the trip through a normal double
     (DBL_DIG), so its own spelling round-trips, and no shorter one
     does: that would be a second decimal of at most 15 digits on the
     same double.
   - The leading digit sits at 10^-307 or above, so the value clears
     Float.min_float (2.2e-308) and the double is normal.  A subnormal
     keeps fewer digits than DBL_DIG promises, and a literal that
     underflows to 0 must render as 0.
   A literal with no non-zero digit renders as 0.  Anything else takes
   [render_number]. *)
let max_digits = 15

let min_lead_exponent = -307

let rec find_dot src i stop =
  if i < stop && src.[i] <> '.' then find_dot src (i + 1) stop else i

let rec skip_zeros src i limit =
  if i < limit && src.[i] = '0' then skip_zeros src (i + 1) limit else i

let rec trim_zeros src i floor =
  if i > floor && src.[i - 1] = '0' then trim_zeros src (i - 1) floor else i

let add_number buf src ~start ~stop =
  let dot = find_dot src start stop in
  (* the first significant integer digit (dot when the integer part is
     0), and one past the last non-zero fractional digit *)
  let lead = skip_zeros src start dot in
  let frac = if dot < stop then trim_zeros src stop (dot + 1) else dot + 1 in
  let kept = frac - dot - 1 in
  let fits =
    if lead < dot then dot - lead + kept <= max_digits
    else
      kept = 0
      ||
      let first = skip_zeros src (dot + 1) frac in
      frac - first <= max_digits && dot - first >= min_lead_exponent
  in
  if not fits then
    Buffer.add_string buf
      (render_number (float_of_string (String.sub src start (stop - start))))
  else begin
    if lead < dot then Buffer.add_substring buf src lead (dot - lead)
    else Buffer.add_char buf '0';
    if kept > 0 then Buffer.add_substring buf src dot (kept + 1)
  end

(* Key under which a compiled program may be cached: the token stream
   rendered back to a canonical spelling.  Whitespace runs collapse to
   one space, blank lines and comments vanish, numbers print as the
   shortest re-lexable decimal, and reserved words are case-folded — so
   trivially-different spellings of the same requirement share one cache
   entry.  Statement structure (the newlines) is preserved, and two
   sources with equal keys select identically: they differ at most in
   source line numbers, which only reach fault diagnostics.

   The key is written in one pass over the lexer's scanner, straight
   into one buffer: names, addresses and operators are copied from the
   source (a name that folds is lowercased on the way), numbers go
   through [add_number].  [spaced] says the current line has content,
   so the next token needs a separator; [owed] that a newline ended such
   a line, written only once more content follows, so the key never
   ends in a newline.

   A source that does not lex keys as itself behind a NUL byte.  The
   lexer rejects NUL, so no canonical form starts with one: a broken
   text can neither take over a valid one's entry nor be answered from
   it.  It will not compile either, and its error is cached under that
   key.

   The rendering is idempotent — canonicalizing a canonical form changes
   nothing — so every wizard in a federation tree derives the same key
   whether it sees the user's spelling or a canonical form forwarded by
   the root. *)
let rec render (sc : Lexer.scanner) buf ~spaced ~owed =
  match Lexer.next sc with
  | Lexer.Bad -> "\000" ^ sc.Lexer.src
  | Lexer.Fixed Token.Eof -> Buffer.contents buf
  | Lexer.Fixed Token.Newline ->
    render sc buf ~spaced:false ~owed:(owed || spaced)
  | kind ->
    if owed then Buffer.add_char buf '\n'
    else if spaced then Buffer.add_char buf ' ';
    let src = sc.Lexer.src in
    let start = sc.Lexer.start and stop = sc.Lexer.stop in
    (match kind with
    | Lexer.Number -> add_number buf src ~start ~stop
    | Lexer.Ident when sc.Lexer.fold ->
      for i = start to stop - 1 do
        Buffer.add_char buf (Char.lowercase_ascii src.[i])
      done
    | _ -> Buffer.add_substring buf src start (stop - start));
    render sc buf ~spaced:true ~owed:false

let cache_key src =
  render (Lexer.scanner src) (Buffer.create (String.length src)) ~spaced:false
    ~owed:false

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
