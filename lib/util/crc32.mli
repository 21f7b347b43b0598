(** CRC-32 (IEEE 802.3 / zlib polynomial) over strings.

    Integrity check for the transmitter->receiver frames; values fit in
    32 bits and are returned as non-negative [int]s. *)

(** CRC of a whole string. *)
val string : string -> int

(** CRC of [len] bytes starting at [pos].  Raises [Invalid_argument] on
    out-of-bounds ranges. *)
val substring : string -> pos:int -> len:int -> int
