(* Token alphabet of the requirement meta-language (Fig 4.1).

   Deviations from the thesis's flex rules, kept deliberately small:
   - host names containing '-' must also contain a '.' (or be written as
     IPs); bare identifiers follow [a-zA-Z][a-zA-Z_0-9]* exactly as in
     the thesis, so '-' between identifiers is always subtraction. *)

type t =
  | Number of float
  | Netaddr of string  (* dotted IP or dotted host name *)
  | Ident of string    (* VAR / UPARAM / PARAM / BLTIN, resolved later *)
  | And                (* && *)
  | Or                 (* || *)
  | Gt                 (* >  *)
  | Ge                 (* >= *)
  | Lt                 (* <  *)
  | Le                 (* <= *)
  | Eq                 (* == *)
  | Ne                 (* != *)
  | Assign             (* =  *)
  | Plus
  | Minus
  | Star
  | Slash
  | Caret
  | Lparen
  | Rparen
  | Newline
  | Eof

let pp ppf = function
  | Number f -> Fmt.pf ppf "NUMBER(%g)" f
  | Netaddr s -> Fmt.pf ppf "NETADDR(%s)" s
  | Ident s -> Fmt.pf ppf "IDENT(%s)" s
  | And -> Fmt.string ppf "&&"
  | Or -> Fmt.string ppf "||"
  | Gt -> Fmt.string ppf ">"
  | Ge -> Fmt.string ppf ">="
  | Lt -> Fmt.string ppf "<"
  | Le -> Fmt.string ppf "<="
  | Eq -> Fmt.string ppf "=="
  | Ne -> Fmt.string ppf "!="
  | Assign -> Fmt.string ppf "="
  | Plus -> Fmt.string ppf "+"
  | Minus -> Fmt.string ppf "-"
  | Star -> Fmt.string ppf "*"
  | Slash -> Fmt.string ppf "/"
  | Caret -> Fmt.string ppf "^"
  | Lparen -> Fmt.string ppf "("
  | Rparen -> Fmt.string ppf ")"
  | Newline -> Fmt.string ppf "\\n"
  | Eof -> Fmt.string ppf "<eof>"
