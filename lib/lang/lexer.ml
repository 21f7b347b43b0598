(* Hand-written lexer implementing the flex rules of Fig 4.1:

     #.*                                    comments, ignored
     [ \t]                                  whitespace, ignored
     [0-9]+(\.[0-9]+)?                      NUMBER
     [0-9]+\.[0-9]+\.[0-9]+\.[0-9]+         NETADDR (dotted IP)
     [a-zA-Z][a-zA-Z_0-9]*\.[\.a-zA-Z_0-9-]* NETADDR (dotted host name)
     [a-zA-Z][a-zA-Z_0-9]*                  IDENT
     && || > >= < <= == != = + - * / ^ ( )  operators
     \n                                     end of statement

   One scanner serves both readers of a requirement, and neither builds
   a token list.  [next] finds the next token and records its kind, its
   source span and its position in the scanner's mutable fields; it
   allocates nothing, except to decide whether a name spelled with
   capitals folds and to build the message of a lexical error.
   [Parser] pulls one token at a time and copies a span only where the
   tree keeps it; [Requirement.cache_key] copies the spans straight into
   the canonical key.  The wizard derives that key on every request and
   parses on every compile-cache miss, so the scanner is on both its
   warm and its cold path. *)

type kind = Number | Netaddr | Ident | Fixed of Token.t | Bad

type scanner = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable col : int;
  mutable start : int;
  mutable stop : int;
  mutable tok_line : int;
  mutable tok_col : int;
  mutable fold : bool;
  mutable message : string;
}

let scanner src =
  {
    src;
    pos = 0;
    line = 1;
    col = 1;
    start = 0;
    stop = 0;
    tok_line = 1;
    tok_col = 1;
    fold = false;
    message = "";
  }

let is_digit c = c >= '0' && c <= '9'

let text sc = String.sub sc.src sc.start (sc.stop - sc.start)

(* Ends the current token at [i] (never across a newline). *)
let end_at sc i =
  sc.col <- sc.col + (i - sc.pos);
  sc.pos <- i;
  sc.stop <- i

let take sc n kind =
  end_at sc (sc.pos + n);
  kind

let bad sc message =
  sc.message <- message;
  Bad

(* Whether the one-byte operator at [pos] is followed by [c], making a
   two-byte one. *)
let then_is sc c =
  sc.pos + 1 < String.length sc.src && Char.equal c sc.src.[sc.pos + 1]

(* A token beginning with a digit: plain number, decimal number, or a
   dotted-quad network address.  Dots are counted during the scan, so
   classification needs no second pass.  The span holds only digits and
   dots and starts with a digit, so one dot always makes a number
   [float_of_string] accepts ("5." is 5), and a dotted quad is well
   formed iff no component is empty. *)
let numeric sc =
  let src = sc.src in
  let n = String.length src in
  let i = ref sc.pos in
  let dots = ref 0 in
  let empty_part = ref false in
  while !i < n && (is_digit src.[!i] || src.[!i] = '.') do
    if src.[!i] = '.' then begin
      incr dots;
      if src.[!i - 1] = '.' then empty_part := true
    end;
    incr i
  done;
  end_at sc !i;
  match !dots with
  | 0 | 1 -> Number
  | 3 when (not !empty_part) && src.[!i - 1] <> '.' -> Netaddr
  | 3 -> bad sc ("malformed address " ^ text sc)
  | _ -> bad sc ("malformed numeric token " ^ text sc)

(* Reserved words of the language: the server/monitor/user-side variable
   names, the builtin functions, and the [order_by] ranking temp. *)
let is_reserved name =
  Vars.is_server_side name || Vars.is_user_side name
  || Builtins.is_builtin name
  || String.equal name "order_by"

(* A token beginning with a letter: identifier, or a dotted host name
   (which may contain '-' after the first label).  Identifiers whose
   lowercase form is a reserved word are case-folded to it
   (HOST_CPU_FREE and host_cpu_free are the same variable); other
   identifiers — user temps, bare host names — stay case-sensitive. *)
let word sc =
  let src = sc.src in
  let n = String.length src in
  let i = ref sc.pos in
  let dotted = ref false in
  let dashed = ref false in
  let upper = ref false in
  let scanning = ref true in
  while !scanning && !i < n do
    match src.[!i] with
    | 'a' .. 'z' | '0' .. '9' | '_' -> incr i
    | 'A' .. 'Z' ->
      upper := true;
      incr i
    | '.' ->
      dotted := true;
      incr i
    | '-' ->
      dashed := true;
      incr i
    | _ -> scanning := false
  done;
  end_at sc !i;
  if !dotted then Netaddr
  else if !dashed then
    bad sc
      (Printf.sprintf
         "'%s': host names with '-' must be dotted or written as IPs"
         (text sc))
  else begin
    (* all-lowercase (the overwhelmingly common case) is already
       canonical; only capitals cost a folded copy *)
    sc.fold <- !upper && is_reserved (String.lowercase_ascii (text sc));
    Ident
  end

let rec next sc =
  sc.start <- sc.pos;
  sc.tok_line <- sc.line;
  sc.tok_col <- sc.col;
  if sc.pos >= String.length sc.src then take sc 0 (Fixed Token.Eof)
  else
    match sc.src.[sc.pos] with
    | '#' ->
      (* comment to end of line; the newline itself is significant *)
      let n = String.length sc.src in
      let start = sc.pos in
      while sc.pos < n && sc.src.[sc.pos] <> '\n' do
        sc.pos <- sc.pos + 1
      done;
      sc.col <- sc.col + (sc.pos - start);
      next sc
    | ' ' | '\t' | '\r' ->
      sc.pos <- sc.pos + 1;
      sc.col <- sc.col + 1;
      next sc
    | '\n' ->
      sc.pos <- sc.pos + 1;
      sc.stop <- sc.pos;
      sc.line <- sc.line + 1;
      sc.col <- 1;
      Fixed Token.Newline
    | '0' .. '9' -> numeric sc
    | 'a' .. 'z' | 'A' .. 'Z' -> word sc
    | '&' ->
      if then_is sc '&' then take sc 2 (Fixed Token.And)
      else bad sc "expected &&"
    | '|' ->
      if then_is sc '|' then take sc 2 (Fixed Token.Or)
      else bad sc "expected ||"
    | '>' ->
      if then_is sc '=' then take sc 2 (Fixed Token.Ge)
      else take sc 1 (Fixed Token.Gt)
    | '<' ->
      if then_is sc '=' then take sc 2 (Fixed Token.Le)
      else take sc 1 (Fixed Token.Lt)
    | '=' ->
      if then_is sc '=' then take sc 2 (Fixed Token.Eq)
      else take sc 1 (Fixed Token.Assign)
    | '!' ->
      if then_is sc '=' then take sc 2 (Fixed Token.Ne)
      else bad sc "expected !="
    | '+' -> take sc 1 (Fixed Token.Plus)
    | '-' -> take sc 1 (Fixed Token.Minus)
    | '*' -> take sc 1 (Fixed Token.Star)
    | '/' -> take sc 1 (Fixed Token.Slash)
    | '^' -> take sc 1 (Fixed Token.Caret)
    | '(' -> take sc 1 (Fixed Token.Lparen)
    | ')' -> take sc 1 (Fixed Token.Rparen)
    | c -> bad sc (Printf.sprintf "unexpected character %C" c)
