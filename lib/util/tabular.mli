(** Aligned plain-text tables for the experiment reports. *)

type t

(** [create ~title ~header] starts an empty table. *)
val create : title:string -> header:string list -> t

(** Append a row (cells beyond the header width are dropped). *)
val add_row : t -> string list -> unit

(** Print to stdout, rows in insertion order, with a trailing blank
    line. *)
val print : t -> unit
