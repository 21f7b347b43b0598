(** Recursive-descent parser for the requirement language (Fig 4.2).

    It reads {!Lexer.next} one token at a time and builds no token
    list: the only allocation is the tree, the names, addresses and
    numbers it keeps, and the error of a text that fails. *)

(** Where a text fails, and why.  A lexical error anywhere in the text
    is reported ahead of any syntax error, as if the text were lexed
    whole before it is parsed. *)
type error = { line : int; col : int; message : string }

(** Lex and parse a requirement text. *)
val parse : string -> (Ast.program, error) result
