(** Abstract syntax of the requirement language (Fig 4.2). *)

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
  | Call of string * expr  (** built-ins take one argument *)
  | Neg of expr
  | Paren of expr

(** One line of the requirement file. *)
type statement = { line : int; expr : expr }

type program = statement list

(** The yacc logic flag: a statement counts toward qualification iff its
    main operator — looking through parentheses — is a comparison or a
    boolean connective. *)
val is_logical : expr -> bool
