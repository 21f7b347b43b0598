(** Parseable text of the requirement language's syntax trees, for
    round-trip properties and for printing generated programs. *)

open Smart_lang

(** Fully parenthesised, so the parser reads back the same tree. *)
val pp_expr : Format.formatter -> Ast.expr -> unit

(** One statement per line. *)
val program_to_string : Ast.program -> string
