(* Reference for [Parser.parse]: the token-list parser the production
   parser replaced, kept as it was.  It reads the whole list
   [Canonical.tokenize] builds, so the text's first lexical error wins
   over any syntax error, and threads [result] through a
   recursive-descent function per precedence level of the yacc grammar
   of Fig 4.2:

     assignment            lowest, right-associative
     ||
     &&
     comparisons           < <= > >= == !=
     + -
     * /
     unary -
     ^                     right-associative
     atoms                 numbers, addresses, variables, f(x), (e)   *)

open Smart_lang

type state = { mutable tokens : Canonical.located list }

let here st =
  match st.tokens with
  | t :: _ -> (t.Canonical.line, t.Canonical.col)
  | [] -> (0, 0)

let fail st message =
  let line, col = here st in
  Error { Parser.line; col; message }

let peek st =
  match st.tokens with
  | t :: _ -> t.Canonical.token
  | [] -> Token.Eof

let peek2 st =
  match st.tokens with
  | _ :: t :: _ -> t.Canonical.token
  | _ -> Token.Eof

let skip st =
  match st.tokens with
  | _ :: rest -> st.tokens <- rest
  | [] -> ()

let ( let* ) r f = Result.bind r f

let expect st tok message =
  if Canonical.token_equal (peek st) tok then begin
    skip st;
    Ok ()
  end
  else fail st message

let rec parse_expr st =
  (* assignment: IDENT '=' expr (not '==') *)
  match (peek st, peek2 st) with
  | Token.Ident name, Token.Assign ->
    skip st;
    skip st;
    let* rhs = parse_expr st in
    Ok (Ast.Assign (name, rhs))
  | _ -> parse_or st

and parse_or st =
  let* lhs = parse_and st in
  let rec loop acc =
    match peek st with
    | Token.Or ->
      skip st;
      let* rhs = parse_and st in
      loop (Ast.Logic (Ast.Or, acc, rhs))
    | _ -> Ok acc
  in
  loop lhs

and parse_and st =
  let* lhs = parse_cmp st in
  let rec loop acc =
    match peek st with
    | Token.And ->
      skip st;
      let* rhs = parse_cmp st in
      loop (Ast.Logic (Ast.And, acc, rhs))
    | _ -> Ok acc
  in
  loop lhs

and parse_cmp st =
  let* lhs = parse_add st in
  let op_of = function
    | Token.Lt -> Some Ast.Lt
    | Token.Le -> Some Ast.Le
    | Token.Gt -> Some Ast.Gt
    | Token.Ge -> Some Ast.Ge
    | Token.Eq -> Some Ast.Eq
    | Token.Ne -> Some Ast.Ne
    | _ -> None
  in
  let rec loop acc =
    match op_of (peek st) with
    | Some op ->
      skip st;
      let* rhs = parse_add st in
      loop (Ast.Cmp (op, acc, rhs))
    | None -> Ok acc
  in
  loop lhs

and parse_add st =
  let* lhs = parse_mul st in
  let rec loop acc =
    match peek st with
    | Token.Plus ->
      skip st;
      let* rhs = parse_mul st in
      loop (Ast.Arith (Ast.Add, acc, rhs))
    | Token.Minus ->
      skip st;
      let* rhs = parse_mul st in
      loop (Ast.Arith (Ast.Sub, acc, rhs))
    | _ -> Ok acc
  in
  loop lhs

and parse_mul st =
  let* lhs = parse_unary st in
  let rec loop acc =
    match peek st with
    | Token.Star ->
      skip st;
      let* rhs = parse_unary st in
      loop (Ast.Arith (Ast.Mul, acc, rhs))
    | Token.Slash ->
      skip st;
      let* rhs = parse_unary st in
      loop (Ast.Arith (Ast.Div, acc, rhs))
    | _ -> Ok acc
  in
  loop lhs

and parse_unary st =
  match peek st with
  | Token.Minus ->
    skip st;
    let* e = parse_unary st in
    Ok (Ast.Neg e)
  | _ -> parse_power st

and parse_power st =
  let* base = parse_atom st in
  match peek st with
  | Token.Caret ->
    skip st;
    (* right-associative, binds tighter than unary minus on the right *)
    let* exponent = parse_unary st in
    Ok (Ast.Arith (Ast.Pow, base, exponent))
  | _ -> Ok base

and parse_atom st =
  match peek st with
  | Token.Number f ->
    skip st;
    Ok (Ast.Number f)
  | Token.Netaddr a ->
    skip st;
    Ok (Ast.Netaddr a)
  | Token.Ident name ->
    skip st;
    if Canonical.token_equal (peek st) Token.Lparen then begin
      skip st;
      let* arg = parse_expr st in
      let* () = expect st Token.Rparen "expected ')' after function argument" in
      Ok (Ast.Call (name, arg))
    end
    else Ok (Ast.Var name)
  | Token.Lparen ->
    skip st;
    let* e = parse_expr st in
    let* () = expect st Token.Rparen "expected ')'" in
    Ok (Ast.Paren e)
  | tok -> fail st (Fmt.str "unexpected token %a" Token.pp tok)

(* A program is a newline-separated list of statements. *)
let parse_program tokens =
  let st = { tokens } in
  let rec statements acc =
    match peek st with
    | Token.Newline ->
      skip st;
      statements acc
    | Token.Eof -> Ok (List.rev acc)
    | _ ->
      let line, _ = here st in
      let* expr = parse_expr st in
      let* () =
        match peek st with
        | Token.Newline ->
          skip st;
          Ok ()
        | Token.Eof -> Ok ()
        | tok ->
          fail st (Fmt.str "unexpected token %a after statement" Token.pp tok)
      in
      statements ({ Ast.line; expr } :: acc)
  in
  statements []

let parse src =
  match Canonical.tokenize src with
  | Error e -> Error e
  | Ok tokens -> parse_program tokens
