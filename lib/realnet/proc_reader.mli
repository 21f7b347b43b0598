(** Reads the real /proc of the probe daemon's host.  Paths are
    configurable so tests can substitute fixtures; parsing is shared
    with the simulator ([Smart_host.Procfs]). *)

type t = {
  loadavg_path : string;
  stat_path : string;
  meminfo_path : string;
  netdev_path : string;
  cpuinfo_path : string;
}

(** The standard /proc locations. *)
val default : t

val snapshot : t -> (Smart_host.Procfs.snapshot, string) result

(** First CPU's bogomips from /proc/cpuinfo. *)
val bogomips : t -> float option

(** First non-loopback interface in /proc/net/dev. *)
val default_iface : t -> string option
