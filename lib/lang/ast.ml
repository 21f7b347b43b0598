(* Abstract syntax of the requirement language (yacc grammar of
   Fig 4.2). *)

type arith_op = Add | Sub | Mul | Div | Pow

type cmp_op = Lt | Le | Gt | Ge | Eq | Ne

type logic_op = And | Or

type expr =
  | Number of float
  | Netaddr of string
  | Var of string
  | Assign of string * expr
  | Arith of arith_op * expr * expr
  | Cmp of cmp_op * expr * expr
  | Logic of logic_op * expr * expr
  | Call of string * expr       (* built-in functions take one argument *)
  | Neg of expr
  | Paren of expr

(* One line of the requirement file. *)
type statement = { line : int; expr : expr }

type program = statement list

(* The yacc actions maintain a [logic] flag: a statement participates in
   qualification iff the *last reduced* operator was logical.  On the
   AST this is exactly "the top node, looking through parentheses, is a
   comparison or a boolean connective". *)
let rec is_logical = function
  | Paren e -> is_logical e
  | Cmp _ | Logic _ -> true
  | Number _ | Netaddr _ | Var _ | Assign _ | Arith _ | Call _ | Neg _ ->
    false
