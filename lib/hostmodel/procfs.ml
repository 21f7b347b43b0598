(* /proc text synthesis and parsing.

   The simulated probe reads the same text formats a real probe reads
   from a Linux /proc, so the parsing code path is identical in
   simulation and on a live host.  Rendering follows Linux 2.4 (the
   thesis's kernels); parsers additionally accept the modern formats so
   the realnet probe daemon works on current kernels. *)

type loadavg = { l1 : float; l5 : float; l15 : float }

type cpu_jiffies = { user : float; nice : float; system : float; idle : float }

type disk_io = {
  rreq : float;
  rblocks : float;
  wreq : float;
  wblocks : float;
}

let zero_disk_io = { rreq = 0.0; rblocks = 0.0; wreq = 0.0; wblocks = 0.0 }

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

(* ------------------------------------------------------------------ *)
(* Rendering from a simulated machine                                  *)
(* ------------------------------------------------------------------ *)

let render_loadavg (m : Machine.t) =
  let runnable = int_of_float (Float.round (Machine.cpu_demand m)) in
  Printf.sprintf "%.2f %.2f %.2f %d/%d %d\n" m.Machine.load1 m.Machine.load5
    m.Machine.load15 (max 1 runnable)
    (60 + (3 * List.length m.Machine.workloads))
    (1000 + List.length m.Machine.workloads)

let render_stat (m : Machine.t) =
  let j v = Printf.sprintf "%.0f" v in
  String.concat ""
    [
      Printf.sprintf "cpu  %s %s %s %s\n" (j m.Machine.jiffies_user)
        (j m.Machine.jiffies_nice) (j m.Machine.jiffies_system)
        (j m.Machine.jiffies_idle);
      (* Linux 2.4 disk_io line: (major,disk):(allreq,rreq,rblk,wreq,wblk) *)
      Printf.sprintf "disk_io: (3,0):(%.0f,%.0f,%.0f,%.0f,%.0f)\n"
        (m.Machine.disk_rreq +. m.Machine.disk_wreq)
        m.Machine.disk_rreq m.Machine.disk_rblocks m.Machine.disk_wreq
        m.Machine.disk_wblocks;
      "ctxt 0\nbtime 0\n";
    ]

let render_meminfo (m : Machine.t) =
  let total = m.Machine.spec.Machine.ram_bytes in
  let used = Machine.mem_used m in
  let free = total - used in
  Printf.sprintf
    "        total:    used:    free:  shared: buffers:  cached:\n\
     Mem:  %d %d %d %d %d %d\n\
     Swap: 0 0 0\n"
    total used free 0 m.Machine.mem_buffers m.Machine.mem_cached

let render_net_dev (m : Machine.t) =
  let e = m.Machine.eth in
  String.concat ""
    [
      "Inter-|   Receive                                                |  \
       Transmit\n";
      " face |bytes    packets errs drop fifo frame compressed \
       multicast|bytes    packets errs drop fifo colls carrier compressed\n";
      Printf.sprintf
        "    lo:%8.0f %7.0f    0    0    0     0          0         0 \
         %8.0f %7.0f    0    0    0     0       0          0\n"
        0.0 0.0 0.0 0.0;
      Printf.sprintf
        "  eth0:%8.0f %7.0f    0    0    0     0          0         0 \
         %8.0f %7.0f    0    0    0     0       0          0\n"
        e.Machine.rbytes e.Machine.rpackets e.Machine.tbytes
        e.Machine.tpackets;
    ]

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

let lines s = String.split_on_char '\n' s

let words s =
  String.split_on_char ' ' s
  |> List.filter (fun w -> not (String.equal w ""))

let float_field name s =
  match float_of_string_opt s with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "%s: bad number %S" name s)

let ( let* ) r f = Result.bind r f

let parse_loadavg text =
  match lines text with
  | first :: _ ->
    (match words first with
    | a :: b :: c :: _ ->
      let* l1 = float_field "loadavg" a in
      let* l5 = float_field "loadavg" b in
      let* l15 = float_field "loadavg" c in
      Ok { l1; l5; l15 }
    | _ -> Error "loadavg: too few fields")
  | [] -> Error "loadavg: empty"

(* Parse "(3,0):(12,5,40,7,56)" into disk_io. *)
let parse_disk_tuple s =
  match String.index_opt s ':' with
  | None -> Error "disk_io: missing colon"
  | Some i ->
    let body = String.sub s (i + 1) (String.length s - i - 1) in
    let body =
      String.trim body |> fun b ->
      if String.length b >= 2 && b.[0] = '(' && b.[String.length b - 1] = ')'
      then String.sub b 1 (String.length b - 2)
      else b
    in
    (match String.split_on_char ',' body with
    | [ _all; r; rb; w; wb ] ->
      let* rreq = float_field "disk_io" r in
      let* rblocks = float_field "disk_io" rb in
      let* wreq = float_field "disk_io" w in
      let* wblocks = float_field "disk_io" wb in
      Ok { rreq; rblocks; wreq; wblocks }
    | _ -> Error "disk_io: expected 5 fields")

let parse_stat text =
  let ls = lines text in
  let cpu_line =
    List.find_opt
      (fun l ->
        String.length l > 4 && String.equal (String.sub l 0 4) "cpu ")
      ls
  in
  let* cpu =
    match cpu_line with
    | None -> Error "stat: no cpu line"
    | Some l ->
      (match words l with
      | _cpu :: u :: n :: s :: i :: _ ->
        let* user = float_field "stat.user" u in
        let* nice = float_field "stat.nice" n in
        let* system = float_field "stat.system" s in
        let* idle = float_field "stat.idle" i in
        Ok { user; nice; system; idle }
      | _ -> Error "stat: short cpu line")
  in
  let disk =
    List.find_opt
      (fun l -> String.length l > 8 && String.equal (String.sub l 0 8) "disk_io:")
      ls
  in
  match disk with
  | None -> Ok (cpu, zero_disk_io)
  | Some l ->
    (match words l with
    | _tag :: tuple :: _ ->
      (match parse_disk_tuple tuple with
      | Ok d -> Ok (cpu, d)
      | Error _ -> Ok (cpu, zero_disk_io))
    | _ -> Ok (cpu, zero_disk_io))

let parse_meminfo text =
  let ls = lines text in
  let mem24 =
    List.find_opt
      (fun l -> String.length l > 4 && String.equal (String.sub l 0 4) "Mem:")
      ls
  in
  match mem24 with
  | Some l ->
    (match words l with
    | _tag :: t :: u :: f :: s :: b :: c :: _ ->
      let* total = float_field "meminfo" t in
      let* used = float_field "meminfo" u in
      let* free = float_field "meminfo" f in
      let* shared_mem = float_field "meminfo" s in
      let* buffers = float_field "meminfo" b in
      let* cached = float_field "meminfo" c in
      Ok
        {
          total = int_of_float total;
          used = int_of_float used;
          free = int_of_float free;
          shared_mem = int_of_float shared_mem;
          buffers = int_of_float buffers;
          cached = int_of_float cached;
        }
    | _ -> Error "meminfo: short Mem: line")
  | None ->
    (* modern "MemTotal:  xxx kB" format *)
    let field name =
      List.find_map
        (fun l ->
          let n = String.length name in
          if String.length l > n && String.equal (String.sub l 0 n) name then
            match words l with
            | _ :: v :: _ -> float_of_string_opt v
            | _ -> None
          else None)
        ls
    in
    (match (field "MemTotal:", field "MemFree:") with
    | Some total_kb, Some free_kb ->
      let buffers = Option.value ~default:0.0 (field "Buffers:") in
      let cached = Option.value ~default:0.0 (field "Cached:") in
      let to_b kb = int_of_float (kb *. 1024.0) in
      let total = to_b total_kb and free = to_b free_kb in
      Ok
        {
          total;
          used = total - free;
          free;
          shared_mem = 0;
          buffers = to_b buffers;
          cached = to_b cached;
        }
    | _ -> Error "meminfo: unrecognised format")

let parse_net_dev text =
  let parse_line l =
    match String.index_opt l ':' with
    | None -> None
    | Some i ->
      let iface = String.trim (String.sub l 0 i) in
      let rest = String.sub l (i + 1) (String.length l - i - 1) in
      (match words rest with
      | rb :: rp :: _e1 :: _e2 :: _e3 :: _e4 :: _e5 :: _e6 :: tb :: tp :: _ ->
        (match
           ( float_of_string_opt rb,
             float_of_string_opt rp,
             float_of_string_opt tb,
             float_of_string_opt tp )
         with
        | Some rbytes, Some rpackets, Some tbytes, Some tpackets ->
          Some { iface; rbytes; rpackets; tbytes; tpackets }
        | _ -> None)
      | _ -> None)
  in
  let stats = List.filter_map parse_line (lines text) in
  if stats = [] then Error "net_dev: no interface lines" else Ok stats

(* A complete sampling of one machine's /proc, as the probe consumes it. *)
type snapshot = {
  loadavg_text : string;
  stat_text : string;
  meminfo_text : string;
  netdev_text : string;
}

let snapshot_of_machine (m : Machine.t) ~now =
  Machine.sync m ~now;
  {
    loadavg_text = render_loadavg m;
    stat_text = render_stat m;
    meminfo_text = render_meminfo m;
    netdev_text = render_net_dev m;
  }
