(** Real-socket monitor machine on one {!Loop}: system monitor (UDP),
    security monitor (log contents), network monitor (UDP echo probing
    of the servers' probe daemons) and the transmitter. *)

type config = Smart_core.Role.monitor_config = {
  host : string;
  wizard_host : string;
  mode : Smart_core.Transmitter.mode;
  probe_interval : float;
  transmit_interval : float;
  netmon_targets : string list;
  security_log : string;  (** log contents, "" for none *)
}

type t

val create : Addr_book.t -> config -> t

(** Probe every target in turn on the caller's thread, then publish the
    record on the daemon's loop (on the caller's before {!start}). *)
val refresh_netmon : t -> Smart_proto.Records.net_record

val start : t -> unit

val stop : t -> unit
