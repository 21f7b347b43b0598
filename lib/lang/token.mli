(** Token alphabet of the requirement meta-language (Fig 4.1). *)

type t =
  | Number of float
  | Netaddr of string  (** dotted IP or dotted host name *)
  | Ident of string    (** classified as VAR/UPARAM/PARAM/BLTIN later *)
  | And
  | Or
  | Gt
  | Ge
  | Lt
  | Le
  | Eq
  | Ne
  | Assign
  | Plus
  | Minus
  | Star
  | Slash
  | Caret
  | Lparen
  | Rparen
  | Newline  (** statement terminator *)
  | Eof

val pp : Format.formatter -> t -> unit
