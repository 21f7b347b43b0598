(** Port assignments of Table 4.2 and the IPC keys of Table 4.3. *)

val transmitter : int
val sysmon : int
val wizard : int
val receiver : int

(** Federation subquery/result port (DESIGN.md §13): regional wizards
    listen for root subqueries here, and the root sends from the same
    port so shard results return to it directly. *)
val fed : int

(** TCP service port of every selected server. *)
val service : int

(** Probe source port / netmon echo port. *)
val probe : int

(** Reply server-list bound (§3.6.1: one UDP datagram per reply). *)
val max_reply_servers : int
