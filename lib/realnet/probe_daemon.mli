(** Real-socket server probe daemon on one {!Loop}: periodic /proc
    sampling reported to the system monitor (a failed read counts in
    [probe.errors_total]), plus the echo responder netmon measures. *)

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
