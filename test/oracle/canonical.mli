(** Reference for {!Smart_lang.Requirement.cache_key}: the token-list
    lexer and the [%.*f] number search the production scanner replaced,
    kept beside the tests as the oracle the scanner is held to. *)

open Smart_lang

(** The token-list lexer (flex rules of Fig 4.1): the tokens and errors
    {!Smart_lang.Lexer.tokenize} must reproduce. *)
val tokenize : string -> (Token.located list, Lexer.error) result

(** The shortest [%.*f] rendering that parses back to the float; an
    infinity renders as 1 followed by 309 zeros. *)
val render_number : float -> string

(** The canonical key of a text that lexes: tokens joined by one space,
    statements by one newline, blank lines and comments dropped, numbers
    by {!render_number}.  [None] when the text does not lex. *)
val cache_key : string -> string option
