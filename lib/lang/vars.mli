(** Variable taxonomy of the requirement language (Appendix B).

    Units: loads are plain numbers; CPU fields are fractions in [0,1];
    memory is in megabytes; disk counters are requests/blocks per
    second; interface counters bytes/packets per second;
    [monitor_network_delay] is in milliseconds, [monitor_network_bw] in
    Mbps. *)

(** The 22 [host_*] variables bound from probe reports. *)
val server_side : string list

(** The 10 user-side parameters: [user_preferred_host1..5] and
    [user_denied_host1..5]. *)
val user_side : string list

(** Includes the monitor-side names (read-only to requirements). *)
val is_server_side : string -> bool

val is_user_side : string -> bool
