(* The server probe's status report (§3.2.1).

   Values travel as a '|'-separated ASCII string — byte-order neutral, as
   the thesis argues, at the cost of a few extra bytes.  Rates are
   derived by the probe from consecutive /proc snapshots, so every field
   is directly bindable to a server-side requirement variable. *)

let version_tag = "SR1"

type t = {
  host : string;
  ip : string;
  (* /proc/loadavg *)
  load1 : float;
  load5 : float;
  load15 : float;
  (* /proc/stat cpu, fractions of the last interval *)
  cpu_user : float;
  cpu_nice : float;
  cpu_system : float;
  cpu_free : float;
  bogomips : float;
  (* /proc/meminfo, megabytes *)
  mem_total : float;
  mem_used : float;
  mem_free : float;
  mem_buffers : float;
  mem_cached : float;
  (* /proc/stat disk_io, per-second over the last interval *)
  disk_rreq : float;
  disk_rblocks : float;
  disk_wreq : float;
  disk_wblocks : float;
  (* /proc/net/dev, per-second over the last interval *)
  net_rbytes : float;
  net_rpackets : float;
  net_tbytes : float;
  net_tpackets : float;
}

(* Numeric field [k], in the order the ASCII report and the binary
   system record ([Records]) carry them. *)
let field r k =
  match k with
  | 0 -> r.load1
  | 1 -> r.load5
  | 2 -> r.load15
  | 3 -> r.cpu_user
  | 4 -> r.cpu_nice
  | 5 -> r.cpu_system
  | 6 -> r.cpu_free
  | 7 -> r.bogomips
  | 8 -> r.mem_total
  | 9 -> r.mem_used
  | 10 -> r.mem_free
  | 11 -> r.mem_buffers
  | 12 -> r.mem_cached
  | 13 -> r.disk_rreq
  | 14 -> r.disk_rblocks
  | 15 -> r.disk_wreq
  | 16 -> r.disk_wblocks
  | 17 -> r.net_rbytes
  | 18 -> r.net_rpackets
  | 19 -> r.net_tbytes
  | 20 -> r.net_tpackets
  | _ -> invalid_arg "Report.field"

let field_count = 21

let fields r = List.init field_count (field r)

(* Trace-context carriage: a traced report appends "|TR|<trace>|<span>".
   The suffix tag cannot be confused with a numeric field, the untraced
   rendering is byte-identical to the pre-trace format, and [decode]
   strips the suffix before the field parse so the 21-field check and
   variable binding never see it. *)
let trace_tag = "TR"

let to_string ?(trace = Smart_util.Tracelog.root) r =
  let base =
    String.concat "|"
      (version_tag :: r.host :: r.ip
      :: List.map (fun f -> Printf.sprintf "%.6g" f) (fields r))
  in
  if Smart_util.Tracelog.is_root trace then base
  else
    Printf.sprintf "%s|%s|%d|%d" base trace_tag
      trace.Smart_util.Tracelog.trace_id trace.Smart_util.Tracelog.span_id

let split_trace parts =
  (* Recognise a trailing [trace_tag; trace; span] triple. *)
  let rec last3 = function
    | [ a; b; c ] -> Some (a, b, c)
    | _ :: tl -> last3 tl
    | [] -> None
  in
  match last3 parts with
  | Some (tag, t, s) when String.equal tag trace_tag -> begin
    match (int_of_string_opt t, int_of_string_opt s) with
    | Some trace_id, Some span_id when trace_id >= 0 && span_id >= 0 ->
      let body =
        List.filteri (fun i _ -> i < List.length parts - 3) parts
      in
      (body, { Smart_util.Tracelog.trace_id; span_id })
    | _ -> (parts, Smart_util.Tracelog.root)
  end
  | _ -> (parts, Smart_util.Tracelog.root)

let decode s =
  let parts, ctx = split_trace (String.split_on_char '|' s) in
  match parts with
  | tag :: host :: ip :: rest when String.equal tag version_tag ->
    if List.length rest <> field_count then
      Error
        (Printf.sprintf "report: expected %d fields, got %d" field_count
           (List.length rest))
    else begin
      match List.map float_of_string_opt rest with
      | values when List.for_all Option.is_some values ->
        (match List.map Option.get values with
        | [ load1; load5; load15;
            cpu_user; cpu_nice; cpu_system; cpu_free; bogomips;
            mem_total; mem_used; mem_free; mem_buffers; mem_cached;
            disk_rreq; disk_rblocks; disk_wreq; disk_wblocks;
            net_rbytes; net_rpackets; net_tbytes; net_tpackets ] ->
          Ok
            ( {
                host; ip;
                load1; load5; load15;
                cpu_user; cpu_nice; cpu_system; cpu_free; bogomips;
                mem_total; mem_used; mem_free; mem_buffers; mem_cached;
                disk_rreq; disk_rblocks; disk_wreq; disk_wblocks;
                net_rbytes; net_rpackets; net_tbytes; net_tpackets;
              },
              ctx )
        | _ -> Error "report: field count mismatch")
      | _ -> Error "report: non-numeric field"
    end
  | tag :: _ when not (String.equal tag version_tag) ->
    Error (Printf.sprintf "report: unknown version tag %S" tag)
  | _ -> Error "report: malformed"

type source = Field of int | Sum of int * int

(* The binding of the 22 server-side requirement variables as field
   positions, so a columnar row fill resolves each name once and can
   read the values from a report or, in place, from a binary record's
   bytes. *)
let source name =
  match name with
  | "host_system_load1" -> Some (Field 0)
  | "host_system_load5" -> Some (Field 1)
  | "host_system_load15" -> Some (Field 2)
  | "host_cpu_user" -> Some (Field 3)
  | "host_cpu_nice" -> Some (Field 4)
  | "host_cpu_system" -> Some (Field 5)
  | "host_cpu_free" -> Some (Field 6)
  | "host_cpu_bogomips" -> Some (Field 7)
  | "host_memory_total" -> Some (Field 8)
  | "host_memory_used" -> Some (Field 9)
  | "host_memory_free" -> Some (Field 10)
  | "host_memory_buffers" -> Some (Field 11)
  | "host_memory_cached" -> Some (Field 12)
  | "host_disk_allreq" -> Some (Sum (13, 15))
  | "host_disk_rreq" -> Some (Field 13)
  | "host_disk_rblocks" -> Some (Field 14)
  | "host_disk_wreq" -> Some (Field 15)
  | "host_disk_wblocks" -> Some (Field 16)
  | "host_network_rbytesps" -> Some (Field 17)
  | "host_network_rpacketsps" -> Some (Field 18)
  | "host_network_tbytesps" -> Some (Field 19)
  | "host_network_tpacketsps" -> Some (Field 20)
  | _ -> None
