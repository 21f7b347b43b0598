(** Reference for {!Smart_lang.Parser.parse}: the token-list parser the
    production parser replaced, over {!Canonical.tokenize}'s list.  The
    production parser must return the same programs and the same
    errors, positions and messages included. *)

open Smart_lang

val parse : string -> (Ast.program, Parser.error) result
