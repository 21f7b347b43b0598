(** The per-server TCP service the smart socket connects to: a tiny
    line protocol (ECHO / WHO / BYE) for the examples and tests. *)

type t

val create : Addr_book.t -> name:string -> t

(** Blocking line read; [None] on EOF or error. *)
val read_line_opt : Unix.file_descr -> string option

(** Write one line (appends the newline). *)
val write_line : Unix.file_descr -> string -> unit

val start : t -> unit

(** Stop accepting and close the listening socket.  Only the first call
    acts; later ones do nothing. *)
val stop : t -> unit
