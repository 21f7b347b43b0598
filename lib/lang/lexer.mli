(** Lexer for the requirement meta-language (flex rules of Fig 4.1).

    One allocation-free {!scanner} serves both readers of a requirement:
    {!Parser.parse} pulls its tokens from {!next} one at a time, and
    {!Requirement.cache_key} renders the canonical key straight from the
    scanned spans.  Neither builds a token list. *)

(** What {!next} found.  The token's bytes are
    [src.[start .. stop - 1]] of the {!scanner}. *)
type kind =
  | Number  (** [digits] or [digits.digits*]; "5." is the number 5 *)
  | Netaddr  (** dotted quad or dotted host name, kept as spelled *)
  | Ident
      (** a name; when [fold] is set its lowercase form is a reserved
          word, and it stands for that word *)
  | Fixed of Token.t
      (** a token without payload: an operator, [Newline] or [Eof] *)
  | Bad  (** a lexical error, at [tok_line] and [tok_col]; see [message] *)

(** Scanning state over one source text.  {!next} overwrites the token
    fields ([start], [stop], [tok_line], [tok_col], [fold], [message])
    on every call. *)
type scanner = private {
  src : string;
  mutable pos : int;  (** next unread byte *)
  mutable line : int;
  mutable col : int;
  mutable start : int;  (** first byte of the last token *)
  mutable stop : int;  (** one past its last byte *)
  mutable tok_line : int;  (** its 1-based line *)
  mutable tok_col : int;  (** its 1-based column *)
  mutable fold : bool;  (** an [Ident] to be read in lowercase *)
  mutable message : string;  (** after [Bad]: what is wrong *)
}

val scanner : string -> scanner

(** Scan the next token, skipping blanks, [\r] and comments.  Allocates
    nothing, except to test whether a name spelled with capitals folds
    and to describe a lexical error.  After [Fixed Token.Eof] or [Bad]
    the scan is over. *)
val next : scanner -> kind
