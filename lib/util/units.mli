(** Unit conversions.  Internal conventions: seconds, bytes, bytes/second. *)

(** Megabits/second to bytes/second. *)
val mbps_to_bytes_per_sec : float -> float

val bytes_per_sec_to_mbps : float -> float

(** Bytes/second to kilobytes/second (1024-based, as the thesis reports). *)
val bytes_per_sec_to_kBps : float -> float

val s_to_ms : float -> float

val pp_time : Format.formatter -> float -> unit
val pp_bytes : Format.formatter -> int -> unit
