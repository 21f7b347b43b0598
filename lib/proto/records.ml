(* Binary status records exchanged between transmitter and receiver
   (Fig 3.10).  Fixed C-struct-like layouts with an explicit byte order:
   decoding with the wrong order yields garbage, the exact hazard §3.5.1
   warns about (tested in test_proto). *)

(* ------------------------------------------------------------------ *)
(* System status record: one per server, timestamped by the monitor     *)
(* ------------------------------------------------------------------ *)

type sys_record = {
  report : Report.t;
  updated_at : float;  (* monitor clock when last refreshed *)
}

let host_width = 40
let ip_width = 16

(* host[40] ip[16] updated_at f64 values f64[21], the values in
   [Report.field] order *)
let values_offset = host_width + ip_width + 8

let sys_record_size = values_offset + (8 * Report.field_count)

let encode_sys order (r : sys_record) =
  let b = Bytes.create sys_record_size in
  Endian.set_string b ~pos:0 ~width:host_width r.report.Report.host;
  Endian.set_string b ~pos:host_width ~width:ip_width r.report.Report.ip;
  Endian.set_f64 order b ~pos:(host_width + ip_width) r.updated_at;
  for k = 0 to Report.field_count - 1 do
    Endian.set_f64 order b ~pos:(values_offset + (8 * k)) (Report.field r.report k)
  done;
  Bytes.to_string b

(* The record at [pos], which the caller has checked fits. *)
let decode_at order s ~pos =
  let host = Endian.get_string s ~pos ~width:host_width in
  let ip = Endian.get_string s ~pos:(pos + host_width) ~width:ip_width in
  let updated_at = Endian.get_f64 order s ~pos:(pos + host_width + ip_width) in
  let base = pos + values_offset in
  let f i = Endian.get_f64 order s ~pos:(base + (8 * i)) in
  {
    report =
      {
        Report.host; ip;
        load1 = f 0; load5 = f 1; load15 = f 2;
        cpu_user = f 3; cpu_nice = f 4; cpu_system = f 5;
        cpu_free = f 6; bogomips = f 7;
        mem_total = f 8; mem_used = f 9; mem_free = f 10;
        mem_buffers = f 11; mem_cached = f 12;
        disk_rreq = f 13; disk_rblocks = f 14; disk_wreq = f 15;
        disk_wblocks = f 16;
        net_rbytes = f 17; net_rpackets = f 18; net_tbytes = f 19;
        net_tpackets = f 20;
      };
    updated_at;
  }

(* A system record left in the bytes it arrived in.  The wizard-side
   mirror keeps pushed records this way: a row refresh reads the values
   straight from the frame payload, and only a reader asking for the
   whole record decodes it. *)
type sys_wire = { data : string; pos : int; order : Endian.order }

let sys_wire order data ~pos =
  if pos < 0 || pos + sys_record_size > String.length data then
    invalid_arg "Records.sys_wire";
  { data; pos; order }

let decode_wire w = decode_at w.order w.data ~pos:w.pos

let rec same_chars s ~pos value i =
  i >= String.length value
  || (s.[pos + i] = value.[i] && same_chars s ~pos value (i + 1))

(* Does the NUL-padded field of [width] bytes at [pos] hold exactly
   [value]?  Compared in place: nothing is allocated. *)
let field_is s ~pos ~width value =
  let n = String.length value in
  n <= width && (n = width || s.[pos + n] = '\000') && same_chars s ~pos value 0

let wire_host data ~pos = Endian.get_string data ~pos ~width:host_width

let wire_host_is data ~pos host = field_is data ~pos ~width:host_width host

let wire_ip w = Endian.get_string w.data ~pos:(w.pos + host_width) ~width:ip_width

let wire_ip_is w ip = field_is w.data ~pos:(w.pos + host_width) ~width:ip_width ip

let wire_updated_at w = Endian.get_f64 w.order w.data ~pos:(w.pos + host_width + ip_width)

(* The order is matched once, outside the loop, and each value goes
   from the bytes to the float array unboxed, so a row read allocates
   nothing. *)
let wire_values w values =
  let s = w.data and base = w.pos + values_offset in
  match w.order with
  | Endian.Little ->
    for k = 0 to Report.field_count - 1 do
      values.(k) <- Int64.float_of_bits (String.get_int64_le s (base + (8 * k)))
    done
  | Endian.Big ->
    for k = 0 to Report.field_count - 1 do
      values.(k) <- Int64.float_of_bits (String.get_int64_be s (base + (8 * k)))
    done

(* ------------------------------------------------------------------ *)
(* Network status record: (peer monitor, delay, bandwidth) rows         *)
(* ------------------------------------------------------------------ *)

type net_entry = {
  peer : string;       (* peer monitor host name *)
  delay : float;       (* seconds *)
  bandwidth : float;   (* bytes per second *)
  measured_at : float;
}

type net_record = { monitor : string; entries : net_entry list }

let net_entry_size = host_width + (8 * 3)

let encode_net order (r : net_record) =
  let n = List.length r.entries in
  let b = Bytes.create (host_width + 4 + (n * net_entry_size)) in
  Endian.set_string b ~pos:0 ~width:host_width r.monitor;
  Endian.set_u32 order b ~pos:host_width n;
  List.iteri
    (fun i e ->
      let base = host_width + 4 + (i * net_entry_size) in
      Endian.set_string b ~pos:base ~width:host_width e.peer;
      Endian.set_f64 order b ~pos:(base + host_width) e.delay;
      Endian.set_f64 order b ~pos:(base + host_width + 8) e.bandwidth;
      Endian.set_f64 order b ~pos:(base + host_width + 16) e.measured_at)
    r.entries;
  Bytes.to_string b

let decode_net order s =
  let len = String.length s in
  if len < host_width + 4 then Error "net_record: truncated header"
  else begin
    let monitor = Endian.get_string s ~pos:0 ~width:host_width in
    let n = Endian.get_u32 order s ~pos:host_width in
    if len < host_width + 4 + (n * net_entry_size) then
      Error "net_record: truncated entries"
    else begin
      let entry i =
        let base = host_width + 4 + (i * net_entry_size) in
        {
          peer = Endian.get_string s ~pos:base ~width:host_width;
          delay = Endian.get_f64 order s ~pos:(base + host_width);
          bandwidth = Endian.get_f64 order s ~pos:(base + host_width + 8);
          measured_at = Endian.get_f64 order s ~pos:(base + host_width + 16);
        }
      in
      Ok { monitor; entries = List.init n entry }
    end
  end

(* ------------------------------------------------------------------ *)
(* Security record: (host, clearance level) rows (§3.4.1)               *)
(* ------------------------------------------------------------------ *)

type sec_entry = { host : string; level : int }

type sec_record = { entries : sec_entry list }

let sec_entry_size = host_width + 4

let encode_sec order (r : sec_record) =
  let n = List.length r.entries in
  let b = Bytes.create (4 + (n * sec_entry_size)) in
  Endian.set_u32 order b ~pos:0 n;
  List.iteri
    (fun i e ->
      let base = 4 + (i * sec_entry_size) in
      Endian.set_string b ~pos:base ~width:host_width e.host;
      Endian.set_u32 order b ~pos:(base + host_width) e.level)
    r.entries;
  Bytes.to_string b

let decode_sec order s =
  let len = String.length s in
  if len < 4 then Error "sec_record: truncated header"
  else begin
    let n = Endian.get_u32 order s ~pos:0 in
    if len < 4 + (n * sec_entry_size) then Error "sec_record: truncated"
    else begin
      let entry i =
        let base = 4 + (i * sec_entry_size) in
        {
          host = Endian.get_string s ~pos:base ~width:host_width;
          level = Endian.get_u32 order s ~pos:(base + host_width);
        }
      in
      Ok { entries = List.init n entry }
    end
  end

(* Dummy security log parser (§3.4.1): "hostname level" per line,
   '#' comments. *)
let parse_security_log text =
  let parse_line line =
    let line =
      match String.index_opt line '#' with
      | Some i -> String.sub line 0 i
      | None -> line
    in
    match
      String.split_on_char ' ' (String.trim line)
      |> List.filter (fun w -> not (String.equal w ""))
    with
    | [] -> None
    | [ host; level ] ->
      (match int_of_string_opt level with
      | Some level -> Some (Ok { host; level })
      | None -> Some (Error ("security log: bad level for " ^ host)))
    | _ -> Some (Error ("security log: malformed line " ^ line))
  in
  let rec collect acc = function
    | [] -> Ok { entries = List.rev acc }
    | line :: rest ->
      (match parse_line line with
      | None -> collect acc rest
      | Some (Ok e) -> collect (e :: acc) rest
      | Some (Error m) -> Error m)
  in
  collect [] (String.split_on_char '\n' text)
