(* Recursive-descent parser for the requirement language, mirroring the
   yacc grammar of Fig 4.2 with conventional precedence:

     assignment            lowest, right-associative
     ||
     &&
     comparisons           < <= > >= == !=
     + -
     * /
     unary -
     ^                     right-associative
     atoms                 numbers, addresses, variables, f(x), (e)

   The parser reads the lexer's scanner directly, one token at a time:
   no token list is built, and a token's text is copied only when it
   becomes a name, an address or a number of the tree.  The binary
   levels are one precedence-climbing loop.  An assignment [IDENT =]
   needs one token more than the current one: [expr] reads the name,
   and when no [=] follows, the name is the first atom of the
   expression.  The wizard compiles every requirement its cache misses,
   so the parser is on its cold path.

   Errors unwind by a local exception.  The text's first lexical error
   wins over any syntax error, as if the whole text were lexed before it
   is parsed: a syntax error is reported only once the rest of the text
   has lexed. *)

type error = { line : int; col : int; message : string }

exception Failed of error

(* The scanner, and the kind of its current token: never [Lexer.Bad],
   which [advance] turns into the lexical error. *)
type state = { sc : Lexer.scanner; mutable kind : Lexer.kind }

let lexical (sc : Lexer.scanner) =
  let line = sc.Lexer.tok_line and col = sc.Lexer.tok_col in
  raise (Failed { line; col; message = sc.Lexer.message })

let advance st =
  match Lexer.next st.sc with
  | Lexer.Bad -> lexical st.sc
  | kind -> st.kind <- kind

let text (sc : Lexer.scanner) =
  String.sub sc.Lexer.src sc.Lexer.start (sc.Lexer.stop - sc.Lexer.start)

let number st = float_of_string (text st.sc)

(* The current name, in lowercase when it folds to a reserved word. *)
let ident st =
  let name = text st.sc in
  if st.sc.Lexer.fold then String.lowercase_ascii name else name

(* The current token, as error messages print it. *)
let token st =
  match st.kind with
  | Lexer.Number -> Token.Number (number st)
  | Lexer.Netaddr -> Token.Netaddr (text st.sc)
  | Lexer.Ident -> Token.Ident (ident st)
  | Lexer.Fixed t -> t
  | Lexer.Bad -> assert false (* [advance] never leaves it current *)

(* A syntax error at the current token, unless the rest of the text
   holds a lexical error. *)
let syntax st message =
  let sc = st.sc in
  let error = { line = sc.Lexer.tok_line; col = sc.Lexer.tok_col; message } in
  let rec scan_rest () =
    match Lexer.next sc with
    | Lexer.Bad -> lexical sc
    | Lexer.Fixed Token.Eof -> raise (Failed error)
    | _ -> scan_rest ()
  in
  match st.kind with
  | Lexer.Fixed Token.Eof -> raise (Failed error)
  | _ -> scan_rest ()

let unexpected st = syntax st (Fmt.str "unexpected token %a" Token.pp (token st))

let expect_rparen st message =
  match st.kind with
  | Lexer.Fixed Token.Rparen -> advance st
  | _ -> syntax st message

(* assignment: IDENT '=' expr (not '==') *)
let rec expr st =
  match st.kind with
  | Lexer.Ident -> (
    let name = ident st in
    advance st;
    match st.kind with
    | Lexer.Fixed Token.Assign ->
      advance st;
      Ast.Assign (name, expr st)
    | _ -> binary st 0 (power st (named st name)))
  | _ -> binary st 0 (unary st)

(* The operators binding tighter than level [min] that follow [lhs],
   left-associative: || is level 1, && 2, comparisons 3, + - 4, * / 5. *)
and binary st min lhs =
  match st.kind with
  | Lexer.Fixed Token.Or when min < 1 ->
    binary st min (Ast.Logic (Ast.Or, lhs, operand st 1))
  | Lexer.Fixed Token.And when min < 2 ->
    binary st min (Ast.Logic (Ast.And, lhs, operand st 2))
  | Lexer.Fixed Token.Lt when min < 3 ->
    binary st min (Ast.Cmp (Ast.Lt, lhs, operand st 3))
  | Lexer.Fixed Token.Le when min < 3 ->
    binary st min (Ast.Cmp (Ast.Le, lhs, operand st 3))
  | Lexer.Fixed Token.Gt when min < 3 ->
    binary st min (Ast.Cmp (Ast.Gt, lhs, operand st 3))
  | Lexer.Fixed Token.Ge when min < 3 ->
    binary st min (Ast.Cmp (Ast.Ge, lhs, operand st 3))
  | Lexer.Fixed Token.Eq when min < 3 ->
    binary st min (Ast.Cmp (Ast.Eq, lhs, operand st 3))
  | Lexer.Fixed Token.Ne when min < 3 ->
    binary st min (Ast.Cmp (Ast.Ne, lhs, operand st 3))
  | Lexer.Fixed Token.Plus when min < 4 ->
    binary st min (Ast.Arith (Ast.Add, lhs, operand st 4))
  | Lexer.Fixed Token.Minus when min < 4 ->
    binary st min (Ast.Arith (Ast.Sub, lhs, operand st 4))
  | Lexer.Fixed Token.Star when min < 5 ->
    binary st min (Ast.Arith (Ast.Mul, lhs, operand st 5))
  | Lexer.Fixed Token.Slash when min < 5 ->
    binary st min (Ast.Arith (Ast.Div, lhs, operand st 5))
  | _ -> lhs

(* The right operand of the operator at the current token, of level
   [level]. *)
and operand st level =
  advance st;
  binary st level (unary st)

and unary st =
  match st.kind with
  | Lexer.Fixed Token.Minus ->
    advance st;
    Ast.Neg (unary st)
  | _ -> power st (atom st)

and power st base =
  match st.kind with
  | Lexer.Fixed Token.Caret ->
    advance st;
    (* right-associative, binds tighter than unary minus on the right *)
    Ast.Arith (Ast.Pow, base, unary st)
  | _ -> base

and atom st =
  match st.kind with
  | Lexer.Number ->
    let f = number st in
    advance st;
    Ast.Number f
  | Lexer.Netaddr ->
    let a = text st.sc in
    advance st;
    Ast.Netaddr a
  | Lexer.Ident ->
    let name = ident st in
    advance st;
    named st name
  | Lexer.Fixed Token.Lparen ->
    advance st;
    let e = expr st in
    expect_rparen st "expected ')'";
    Ast.Paren e
  | _ -> unexpected st

(* The atom a name just read begins: a call when '(' follows. *)
and named st name =
  match st.kind with
  | Lexer.Fixed Token.Lparen ->
    advance st;
    let arg = expr st in
    expect_rparen st "expected ')' after function argument";
    Ast.Call (name, arg)
  | _ -> Ast.Var name

(* A program is a newline-separated list of statements. *)
let rec statements st acc =
  match st.kind with
  | Lexer.Fixed Token.Newline ->
    advance st;
    statements st acc
  | Lexer.Fixed Token.Eof -> List.rev acc
  | _ ->
    let line = st.sc.Lexer.tok_line in
    let expr = expr st in
    (match st.kind with
    | Lexer.Fixed Token.Newline -> advance st
    | Lexer.Fixed Token.Eof -> ()
    | _ ->
      syntax st (Fmt.str "unexpected token %a after statement" Token.pp (token st)));
    statements st ({ Ast.line; expr } :: acc)

let parse src =
  let st = { sc = Lexer.scanner src; kind = Lexer.Fixed Token.Eof } in
  match
    advance st;
    statements st []
  with
  | program -> Ok program
  | exception Failed e -> Error e
