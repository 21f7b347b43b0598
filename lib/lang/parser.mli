(** Recursive-descent parser for the requirement language (Fig 4.2). *)

type error = { line : int; col : int; message : string }

(** Lex and parse a requirement text. *)
val parse : string -> (Ast.program, error) result
