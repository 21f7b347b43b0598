(** Real-socket server probe daemon: periodic /proc sampling reported to
    the system monitor, plus the UDP echo responder the network monitor
    measures against. *)

type config = {
  host : string;          (** logical name this server reports as *)
  ip : string;
  monitor_host : string;
  interval : float;
  proc : Proc_reader.t;
  iface : string option;  (** [None]: first non-loopback interface *)
}

type t

val create : Addr_book.t -> config -> t

val start : t -> unit

val stop : t -> unit

val reports_sent : t -> int
