(* Variable-name taxonomy of the requirement language.

   22 server-side variables are bound from the server status reports
   (Appendix B.1), the monitor_* variables from the network monitor's
   (delay, bandwidth) records and the security database, and 10 user-side
   variables carry the preferred/denied host lists (Appendix B.2).

   Units: loads are plain numbers; CPU fields are fractions in [0,1];
   memory is in megabytes; disk counters are requests/blocks per second;
   network interface counters bytes or packets per second;
   monitor_network_delay is in milliseconds and monitor_network_bw in
   Mbps (the units of the §5.3 experiments). *)

let server_side =
  [
    "host_system_load1";
    "host_system_load5";
    "host_system_load15";
    "host_cpu_user";
    "host_cpu_nice";
    "host_cpu_system";
    "host_cpu_free";
    "host_cpu_bogomips";
    "host_memory_total";
    "host_memory_used";
    "host_memory_free";
    "host_memory_buffers";
    "host_memory_cached";
    "host_disk_allreq";
    "host_disk_rreq";
    "host_disk_rblocks";
    "host_disk_wreq";
    "host_disk_wblocks";
    "host_network_rbytesps";
    "host_network_rpacketsps";
    "host_network_tbytesps";
    "host_network_tpacketsps";
  ]

(* Bound from the network monitor and security databases rather than the
   per-host probe reports. *)
let monitor_side =
  [ "monitor_network_delay"; "monitor_network_bw"; "host_security_level" ]

let user_preferred_prefix = "user_preferred_host"

let user_denied_prefix = "user_denied_host"

let user_side =
  List.init 5 (fun i -> Printf.sprintf "%s%d" user_preferred_prefix (i + 1))
  @ List.init 5 (fun i -> Printf.sprintf "%s%d" user_denied_prefix (i + 1))

(* Membership is asked for every variable occurrence the lexer, compiler
   and evaluator see; hashed sets beat rescanning the lists. *)
let set_of names =
  let tbl = Hashtbl.create (2 * List.length names) in
  List.iter (fun n -> Hashtbl.replace tbl n ()) names;
  tbl

let server_side_set = set_of (server_side @ monitor_side)

let user_side_set = set_of user_side

let is_server_side name = Hashtbl.mem server_side_set name

let is_user_side name = Hashtbl.mem user_side_set name
