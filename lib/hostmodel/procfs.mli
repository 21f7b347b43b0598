(** Synthesis and parsing of the five /proc files the server probe reads
    (Table 3.1): [/proc/loadavg], [/proc/stat] (CPU + disk_io),
    [/proc/meminfo] and [/proc/net/dev].

    Rendering follows the Linux 2.4 formats of the thesis; the parsers
    also accept modern formats so the same probe runs on live hosts. *)

type loadavg = { l1 : float; l5 : float; l15 : float }

type cpu_jiffies = { user : float; nice : float; system : float; idle : float }

type disk_io = {
  rreq : float;
  rblocks : float;
  wreq : float;
  wblocks : float;
}

type meminfo = {
  total : int;
  used : int;
  free : int;
  shared_mem : int;
  buffers : int;
  cached : int;
}

type netdev_stat = {
  iface : string;
  rbytes : float;
  rpackets : float;
  tbytes : float;
  tpackets : float;
}

val render_meminfo : Machine.t -> string

val parse_loadavg : string -> (loadavg, string) result

(** CPU jiffies plus the 2.4 [disk_io] line (zeroes when absent). *)
val parse_stat : string -> (cpu_jiffies * disk_io, string) result

val parse_meminfo : string -> (meminfo, string) result

val parse_net_dev : string -> (netdev_stat list, string) result

(** One probe sampling worth of /proc text. *)
type snapshot = {
  loadavg_text : string;
  stat_text : string;
  meminfo_text : string;
  netdev_text : string;
}

(** Sync the machine to [now] and render its snapshot. *)
val snapshot_of_machine : Machine.t -> now:float -> snapshot
