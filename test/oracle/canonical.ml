(* Reference for [Requirement.cache_key]: the token-list key path the
   production scanner replaced, kept as it was.  The lexer below builds
   a [Token.located] list (one [String.sub] per name and number, a
   [float_of_string] per literal); the canonical form renders that list
   back, each number by widening a [%.*f] precision until the float
   round-trips.  The production path must produce the same bytes on
   every text that lexes, and this lexer the same tokens and errors.

   The lexer implements the flex rules of Fig 4.1:

     #.*                                    comments, ignored
     [ \t]                                  whitespace, ignored
     [0-9]+(\.[0-9]+)?                      NUMBER
     [0-9]+\.[0-9]+\.[0-9]+\.[0-9]+         NETADDR (dotted IP)
     [a-zA-Z][a-zA-Z_0-9]*\.[\.a-zA-Z_0-9-]* NETADDR (dotted host name)
     [a-zA-Z][a-zA-Z_0-9]*                  IDENT
     && || > >= < <= == != = + - * / ^ ( )  operators
     \n                                     end of statement *)

open Smart_lang

type state = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable col : int;
}

let at_end st = st.pos >= String.length st.src

(* Lookahead test for two-character operators. *)
let peek2_is st c =
  st.pos + 1 < String.length st.src && Char.equal c st.src.[st.pos + 1]

let advance st =
  (if (not (at_end st)) && st.src.[st.pos] = '\n' then begin
     st.line <- st.line + 1;
     st.col <- 1
   end
   else st.col <- st.col + 1);
  st.pos <- st.pos + 1

let is_digit c = c >= '0' && c <= '9'
let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')

(* A token beginning with a digit: plain number, decimal number, or a
   dotted-quad network address.  Dots are counted during the scan, so
   classification needs no second pass. *)
let lex_numeric st ~line ~col =
  let src = st.src in
  let n = String.length src in
  let start = st.pos in
  let dots = ref 0 in
  let scanning = ref true in
  while !scanning && st.pos < n do
    match src.[st.pos] with
    | '0' .. '9' -> st.pos <- st.pos + 1
    | '.' ->
      incr dots;
      st.pos <- st.pos + 1
    | _ -> scanning := false
  done;
  st.col <- st.col + (st.pos - start);
  let body = String.sub src start (st.pos - start) in
  let dots = !dots in
  if dots = 0 then
    Ok { Token.token = Token.Number (float_of_string body); line; col }
  else if dots = 1 then
    match float_of_string_opt body with
    | Some f -> Ok { Token.token = Token.Number f; line; col }
    | None ->
      Error { Lexer.line; col; message = "malformed number " ^ body }
  else if dots = 3 then begin
    (* dotted quad: each component must be numeric and non-empty *)
    let parts = String.split_on_char '.' body in
    if
      List.for_all
        (fun p -> (not (String.equal p "")) && String.for_all is_digit p)
        parts
    then Ok { Token.token = Token.Netaddr body; line; col }
    else Error { Lexer.line; col; message = "malformed address " ^ body }
  end
  else Error { Lexer.line; col; message = "malformed numeric token " ^ body }

(* Reserved words of the language: the server/monitor/user-side variable
   names, the builtin functions, and the [order_by] ranking temp. *)
let is_reserved name =
  Vars.is_server_side name || Vars.is_user_side name
  || Builtins.is_builtin name
  || String.equal name "order_by"

(* A token beginning with a letter: identifier, or a dotted host name
   (which may contain '-' after the first label).  Identifiers whose
   lowercase form is a reserved word are case-folded to it; other
   identifiers stay case-sensitive. *)
let lex_word st ~line ~col =
  let src = st.src in
  let n = String.length src in
  let start = st.pos in
  let dotted = ref false in
  let dashed = ref false in
  let upper = ref false in
  let scanning = ref true in
  while !scanning && st.pos < n do
    match src.[st.pos] with
    | 'a' .. 'z' | '0' .. '9' | '_' -> st.pos <- st.pos + 1
    | 'A' .. 'Z' ->
      upper := true;
      st.pos <- st.pos + 1
    | '.' ->
      dotted := true;
      st.pos <- st.pos + 1
    | '-' ->
      dashed := true;
      st.pos <- st.pos + 1
    | _ -> scanning := false
  done;
  st.col <- st.col + (st.pos - start);
  let body = String.sub src start (st.pos - start) in
  if !dotted then Ok { Token.token = Token.Netaddr body; line; col }
  else if !dashed then
    Error
      {
        Lexer.line;
        col;
        message =
          Printf.sprintf
            "'%s': host names with '-' must be dotted or written as IPs"
            body;
      }
  else if not !upper then Ok { Token.token = Token.Ident body; line; col }
  else
    let folded = String.lowercase_ascii body in
    let canonical = if is_reserved folded then folded else body in
    Ok { Token.token = Token.Ident canonical; line; col }

let simple st ~line ~col tok =
  advance st;
  Ok { Token.token = tok; line; col }

let double st ~line ~col tok =
  advance st;
  advance st;
  Ok { Token.token = tok; line; col }

let rec next st =
  let line = st.line and col = st.col in
  if at_end st then Ok { Token.token = Token.Eof; line; col }
  else
    match st.src.[st.pos] with
    | '#' ->
      (* comment to end of line; the newline itself is significant *)
      let n = String.length st.src in
      let start = st.pos in
      while st.pos < n && st.src.[st.pos] <> '\n' do
        st.pos <- st.pos + 1
      done;
      st.col <- st.col + (st.pos - start);
      next st
    | ' ' | '\t' | '\r' ->
      advance st;
      next st
    | '\n' -> simple st ~line ~col Token.Newline
    | c when is_digit c -> lex_numeric st ~line ~col
    | c when is_alpha c -> lex_word st ~line ~col
    | '&' ->
      if peek2_is st '&' then double st ~line ~col Token.And
      else Error { Lexer.line; col; message = "expected &&" }
    | '|' ->
      if peek2_is st '|' then double st ~line ~col Token.Or
      else Error { Lexer.line; col; message = "expected ||" }
    | '>' ->
      if peek2_is st '=' then double st ~line ~col Token.Ge
      else simple st ~line ~col Token.Gt
    | '<' ->
      if peek2_is st '=' then double st ~line ~col Token.Le
      else simple st ~line ~col Token.Lt
    | '=' ->
      if peek2_is st '=' then double st ~line ~col Token.Eq
      else simple st ~line ~col Token.Assign
    | '!' ->
      if peek2_is st '=' then double st ~line ~col Token.Ne
      else Error { Lexer.line; col; message = "expected !=" }
    | '+' -> simple st ~line ~col Token.Plus
    | '-' -> simple st ~line ~col Token.Minus
    | '*' -> simple st ~line ~col Token.Star
    | '/' -> simple st ~line ~col Token.Slash
    | '^' -> simple st ~line ~col Token.Caret
    | '(' -> simple st ~line ~col Token.Lparen
    | ')' -> simple st ~line ~col Token.Rparen
    | c ->
      Error
        { Lexer.line; col; message = Printf.sprintf "unexpected character %C" c }

let tokenize src =
  let st = { src; pos = 0; line = 1; col = 1 } in
  let rec go acc =
    match next st with
    | Error e -> Error e
    | Ok ({ Token.token = Token.Eof; _ } as t) -> Ok (List.rev (t :: acc))
    | Ok t -> go (t :: acc)
  in
  go []

(* The shortest fixed-point decimal that round-trips [f], found by
   widening the fractional precision; an overflowed literal renders as 1
   followed by 309 zeros. *)
let render_number f =
  if f = infinity then "1" ^ String.make 309 '0'
  else begin
    let rec fit p =
      let s = Printf.sprintf "%.*f" p f in
      if p > 350 || float_of_string s = f then s else fit (p + 1)
    in
    fit 0
  end

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

(* Tokens joined by one space, lines by one newline, blank lines
   dropped, no trailing newline. *)
let cache_key src =
  match tokenize src with
  | Error _ -> None
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
    Some (if n > 0 && s.[n - 1] = '\n' then String.sub s 0 (n - 1) else s)
