(* Printer of requirement syntax trees whose output parses back to the
   same tree. *)

open Smart_lang.Ast

let arith_op_to_string = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Pow -> "^"

let cmp_op_to_string = function
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | Eq -> "=="
  | Ne -> "!="

let logic_op_to_string = function And -> "&&" | Or -> "||"

let rec pp_expr ppf = function
  | Number f ->
    if Float.is_integer f && Float.abs f < 1e15 then
      Fmt.pf ppf "%.0f" f
    else Fmt.pf ppf "%g" f
  | Netaddr s -> Fmt.string ppf s
  | Var v -> Fmt.string ppf v
  | Assign (v, e) -> Fmt.pf ppf "%s = %a" v pp_expr e
  | Arith (op, a, b) ->
    Fmt.pf ppf "(%a %s %a)" pp_expr a (arith_op_to_string op) pp_expr b
  | Cmp (op, a, b) ->
    Fmt.pf ppf "(%a %s %a)" pp_expr a (cmp_op_to_string op) pp_expr b
  | Logic (op, a, b) ->
    Fmt.pf ppf "(%a %s %a)" pp_expr a (logic_op_to_string op) pp_expr b
  | Call (f, e) -> Fmt.pf ppf "%s(%a)" f pp_expr e
  | Neg e -> Fmt.pf ppf "(-%a)" pp_expr e
  | Paren e -> Fmt.pf ppf "(%a)" pp_expr e

let program_to_string prog =
  String.concat "" (List.map (fun st -> Fmt.str "%a\n" pp_expr st.expr) prog)
