(** Explicit-endianness primitives for the binary record codecs.  Both
    byte orders are implemented so tests can demonstrate the §3.5.1
    same-architecture requirement.

    Setters write into a buffer the encoder owns; getters read a
    received [string] in place, so no decoder needs to copy its input.
    Every accessor raises [Invalid_argument] when the field does not fit
    inside the buffer; decoders check lengths first. *)

type order = Little | Big

val set_u16 : order -> Bytes.t -> pos:int -> int -> unit
val get_u16 : order -> string -> pos:int -> int

val set_u32 : order -> Bytes.t -> pos:int -> int -> unit
val get_u32 : order -> string -> pos:int -> int

val set_i64 : order -> Bytes.t -> pos:int -> int64 -> unit
val get_i64 : order -> string -> pos:int -> int64

val set_f64 : order -> Bytes.t -> pos:int -> float -> unit
val get_f64 : order -> string -> pos:int -> float

(** Fixed-width NUL-padded character field (C [char\[n\]] semantics);
    values longer than [width - 1] are truncated. *)
val set_string : Bytes.t -> pos:int -> width:int -> string -> unit

(** The field's characters up to its first NUL (all [width] of them if
    it has none). *)
val get_string : string -> pos:int -> width:int -> string
