(* Unit conventions used throughout the project:
     time        — seconds (float)
     data size   — bytes (int)
     rates       — bytes per second (float) internally
   The paper mixes Mbps, KB/s and KBytes; these helpers keep conversions
   in one place. *)

let bits_per_byte = 8.0

let mbps_to_bytes_per_sec mbps = mbps *. 1e6 /. bits_per_byte

let bytes_per_sec_to_mbps bps = bps *. bits_per_byte /. 1e6

(* The thesis reports application throughput in KB/s (kilobytes). *)
let bytes_per_sec_to_kBps bps = bps /. 1024.0

let kB = 1024

let mB = 1024 * 1024


let s_to_ms s = s *. 1e3

let s_to_us s = s *. 1e6

let pp_time ppf s =
  if s < 1e-3 then Fmt.pf ppf "%.1f us" (s_to_us s)
  else if s < 1.0 then Fmt.pf ppf "%.3f ms" (s_to_ms s)
  else Fmt.pf ppf "%.2f s" s

let pp_bytes ppf b =
  if b >= mB then Fmt.pf ppf "%.1f MB" (float_of_int b /. float_of_int mB)
  else if b >= kB then Fmt.pf ppf "%.1f KB" (float_of_int b /. float_of_int kB)
  else Fmt.pf ppf "%d B" b
