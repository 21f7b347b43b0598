(* Port and IPC-key assignments, verbatim from Tables 4.2 and 4.3. *)

(* monitor machine *)
let transmitter = 1110
let sysmon = 1111

(* wizard machine *)
let wizard = 1120
let receiver = 1121

(* federation plane (DESIGN.md §13): regional wizards answer root
   subqueries here, and the root sources its fan-out from the same port
   so shard results come straight back to it *)
let fed = 1122

(* the service each selected server offers compute/download on *)
let service = 1130

(* probe source port *)
let probe = 1109

(* Maximum servers a wizard reply may carry (§3.6.1: the reply is a
   single UDP message, so the list is bounded). *)
let max_reply_servers = 60
