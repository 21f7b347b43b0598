(** Built-in mathematical functions of the requirement language (the hoc
    set of §3.6.2): sin, cos, tan, atan, exp, log, ln, log10, sqrt, int,
    abs. *)

val find : string -> (float -> float) option

val is_builtin : string -> bool
