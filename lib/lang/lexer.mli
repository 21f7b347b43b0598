(** Lexer for the requirement meta-language (flex rules of Fig 4.1).

    One allocation-free {!scanner} underlies both {!tokenize}, which
    builds the parser's token list, and
    {!Requirement.cache_key}, which renders the canonical key straight
    from the scanned spans. *)

type error = { line : int; col : int; message : string }

val pp_error : Format.formatter -> error -> unit

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
  | Bad  (** a lexical error, described by {!error} *)

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

(** The error the last {!next} reported with [Bad], at the offending
    token's position. *)
val error : scanner -> error

(** Tokenize a complete requirement text.  On success the list always
    ends with [Token.Eof]. *)
val tokenize : string -> (Token.located list, error) result
