(* One match arm per variable, over the report's named fields. *)

open Smart_proto.Report

let variable r name =
  let v f = Some f in
  match name with
  | "host_system_load1" -> v r.load1
  | "host_system_load5" -> v r.load5
  | "host_system_load15" -> v r.load15
  | "host_cpu_user" -> v r.cpu_user
  | "host_cpu_nice" -> v r.cpu_nice
  | "host_cpu_system" -> v r.cpu_system
  | "host_cpu_free" -> v r.cpu_free
  | "host_cpu_bogomips" -> v r.bogomips
  | "host_memory_total" -> v r.mem_total
  | "host_memory_used" -> v r.mem_used
  | "host_memory_free" -> v r.mem_free
  | "host_memory_buffers" -> v r.mem_buffers
  | "host_memory_cached" -> v r.mem_cached
  | "host_disk_allreq" -> v (r.disk_rreq +. r.disk_wreq)
  | "host_disk_rreq" -> v r.disk_rreq
  | "host_disk_rblocks" -> v r.disk_rblocks
  | "host_disk_wreq" -> v r.disk_wreq
  | "host_disk_wblocks" -> v r.disk_wblocks
  | "host_network_rbytesps" -> v r.net_rbytes
  | "host_network_rpacketsps" -> v r.net_rpackets
  | "host_network_tbytesps" -> v r.net_tbytes
  | "host_network_tpacketsps" -> v r.net_tpackets
  | _ -> None
