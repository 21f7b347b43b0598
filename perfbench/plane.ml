(* The status planes and requirement texts the workloads run on.  Every
   input is generated here from the workload seed before anything is
   timed; the system only ever sees the results. *)

module C = Smart_core
module P = Smart_proto

let order = P.Endian.Little

let report ~host ~ip ~load1 ~cpu_free ~bogomips ~mem_total ~mem_free =
  {
    P.Report.host;
    ip;
    load1;
    load5 = load1 *. 0.9;
    load15 = load1 *. 0.8;
    cpu_user = (1.0 -. cpu_free) *. 0.8;
    cpu_nice = 0.0;
    cpu_system = (1.0 -. cpu_free) *. 0.2;
    cpu_free;
    bogomips;
    mem_total;
    mem_used = mem_total -. mem_free;
    mem_free;
    mem_buffers = 16.0;
    mem_cached = 64.0;
    disk_rreq = 1.0;
    disk_rblocks = 8.0;
    disk_wreq = 1.0;
    disk_wblocks = 8.0;
    net_rbytes = 1024.0;
    net_rpackets = 4.0;
    net_tbytes = 2048.0;
    net_tpackets = 6.0;
  }

let ip_of i = Printf.sprintf "10.%d.%d.%d" (i / 62500) (i / 250 mod 250) (i mod 250)

let sys r = { P.Records.report = r; updated_at = 100.0 }

(* One monitor group's transmitter push — the Sys, Net and Sec snapshot
   frames of [db], encoded exactly as they travel to the receiver. *)
let encode_push ~monitor db =
  let tx =
    C.Transmitter.create ~monitor_name:monitor
      {
        C.Transmitter.mode = C.Transmitter.Centralized;
        order;
        receiver = { C.Output.host = "wizard"; port = P.Ports.receiver };
      }
      db
  in
  String.concat ""
    (List.map (P.Frame.encode order) (C.Transmitter.snapshot_frames tx))

(* ------------------------------------------------------------------ *)
(* hot_repeat / loopback_udp: bench_wizard's 60 servers x 16 monitors   *)
(* ------------------------------------------------------------------ *)

let hot_servers = 60
let hot_monitors = 16

let hot_host i = Printf.sprintf "srv%02d" i

(* Every monitor reports an entry toward every server, so the peer
   index holds 16 candidates per target and the tie-break runs. *)
let populate_hot db =
  for i = 0 to hot_servers - 1 do
    C.Status_db.update_sys db
      (sys
         (report ~host:(hot_host i) ~ip:(ip_of i)
            ~load1:(0.05 *. float_of_int (i mod 8))
            ~cpu_free:(1.0 -. (0.01 *. float_of_int (i mod 50)))
            ~bogomips:(2000.0 +. (100.0 *. float_of_int (i mod 30)))
            ~mem_total:512.0
            ~mem_free:(500.0 -. float_of_int (i mod 400))))
  done;
  for m = 0 to hot_monitors - 1 do
    C.Status_db.update_net db
      {
        P.Records.monitor = Printf.sprintf "mon%02d" m;
        entries =
          List.init hot_servers (fun i ->
              {
                P.Records.peer = hot_host i;
                delay = 0.001 +. (0.0001 *. float_of_int m);
                bandwidth = 10e6 +. (1e5 *. float_of_int ((m + i) mod 7));
                measured_at = 50.0 +. float_of_int m;
              });
      }
  done;
  C.Status_db.replace_sec db
    {
      P.Records.entries =
        List.init hot_servers (fun i ->
            { P.Records.host = hot_host i; level = 1 + (i mod 5) });
    }

(* ------------------------------------------------------------------ *)
(* churn_mixed: 2,000 servers in 8 monitor groups                       *)
(* ------------------------------------------------------------------ *)

let churn_groups = 8
let churn_per_group = 250
let churn_servers = churn_groups * churn_per_group

(* Load variants each group cycles through, so consecutive pushes of a
   group always change its values. *)
let churn_variants = 4

let churn_host i = Printf.sprintf "c%04d" i
let churn_monitor g = Printf.sprintf "cmon%d" g

let churn_sec =
  {
    P.Records.entries =
      List.init churn_servers (fun i ->
          { P.Records.host = churn_host i; level = 1 + (i * 7 mod 5) });
  }

(* The encoded push of group [g] in load variant [v].  Hardware
   (bogomips, memory size, security level) is fixed per host; load, free
   CPU, free memory and the group's network figures move per variant. *)
let churn_push ~seed ~group:g ~variant:v =
  let rng = Smart_util.Prng.create ~seed:((seed * 1009) + (g * 31) + v) in
  let db = C.Status_db.create () in
  C.Status_db.update_sys_many db
    (List.init churn_per_group (fun j ->
         let i = (g * churn_per_group) + j in
         let mem_total = float_of_int (512 * (1 + (i mod 4))) in
         sys
           (report ~host:(churn_host i) ~ip:(ip_of i)
              ~load1:(Smart_util.Prng.range rng ~lo:0.0 ~hi:4.0)
              ~cpu_free:(Smart_util.Prng.range rng ~lo:0.0 ~hi:1.0)
              ~bogomips:(1000.0 +. float_of_int (i * 37 mod 3000))
              ~mem_total
              ~mem_free:(Smart_util.Prng.range rng ~lo:0.0 ~hi:mem_total))));
  C.Status_db.update_net db
    {
      P.Records.monitor = churn_monitor g;
      entries =
        List.init churn_per_group (fun j ->
            {
              P.Records.peer = churn_host ((g * churn_per_group) + j);
              delay = Smart_util.Prng.range rng ~lo:0.0005 ~hi:0.01;
              bandwidth = Smart_util.Prng.range rng ~lo:1e6 ~hi:12e6;
              measured_at = 50.0;
            });
    };
  C.Status_db.replace_sec db churn_sec;
  encode_push ~monitor:(churn_monitor g) db

(* ------------------------------------------------------------------ *)
(* fed_fanout: 8 shards x 750 servers, one hardware band per shard      *)
(* ------------------------------------------------------------------ *)

let fed_shards = 8
let fed_per_shard = 750

let fed_host i = Printf.sprintf "f%04d" i
let fed_shard_name k = Printf.sprintf "shard%d" k

(* Shard [k] holds bogomips in [1000 (k+1), 1000 (k+1) + 750): the
   band digest routing prunes on. *)
let fed_band_lo k = 1000 * (k + 1)

let populate_fed_shard ~seed db k =
  let rng = Smart_util.Prng.create ~seed:((seed * 7919) + k) in
  let mine = List.init fed_per_shard (fun j -> (k * fed_per_shard) + j) in
  C.Status_db.update_sys_many db
    (List.map
       (fun i ->
         sys
           (report ~host:(fed_host i) ~ip:(ip_of i)
              ~load1:(Smart_util.Prng.range rng ~lo:0.0 ~hi:4.0)
              ~cpu_free:(Smart_util.Prng.range rng ~lo:0.0 ~hi:1.0)
              ~bogomips:(float_of_int (fed_band_lo k + (i mod fed_per_shard)))
              ~mem_total:1024.0
              ~mem_free:(Smart_util.Prng.range rng ~lo:0.0 ~hi:1024.0)))
       mine);
  C.Status_db.update_net db
    {
      P.Records.monitor = Printf.sprintf "fmon%d" k;
      entries =
        List.map
          (fun i ->
            {
              P.Records.peer = fed_host i;
              delay = 0.001 +. (0.0001 *. float_of_int (i mod 9));
              bandwidth = 10e6 +. (1e5 *. float_of_int (i mod 7));
              measured_at = 50.0;
            })
          mine;
    };
  C.Status_db.replace_sec db
    {
      P.Records.entries =
        List.map (fun i -> { P.Records.host = fed_host i; level = 1 + (i mod 5) }) mine;
    }

(* ------------------------------------------------------------------ *)
(* Requirement texts                                                    *)
(* ------------------------------------------------------------------ *)

let pick rng a = a.(Smart_util.Prng.int rng ~bound:(Array.length a))

let range rng lo hi = Smart_util.Prng.range rng ~lo ~hi

(* [n] texts from [gen k], re-drawing any whose canonical form repeats
   an earlier one: each text is its own compile-cache and result-cache
   entry. *)
let distinct n gen =
  let seen = Hashtbl.create (2 * n) in
  Array.init n (fun k ->
      let rec fresh () =
        let text = gen k in
        let key = Smart_lang.Requirement.cache_key text in
        if Hashtbl.mem seen key then fresh ()
        else begin
          Hashtbl.replace seen key ();
          text
        end
      in
      fresh ())

(* Every hot text qualifies most of the 60 servers, so each of wanted
   1-10 is answered in full and the realnet client never sees an empty
   list.  The texts share one shape and only their thresholds move with
   the seed, so the per-request work barely depends on it. *)
let hot_texts ~seed =
  let rng = Smart_util.Prng.create ~seed:(seed + 17) in
  let orders =
    [| "host_memory_free"; "host_cpu_free"; "host_cpu_bogomips"; "host_system_load1" |]
  in
  distinct 8 (fun k ->
      Printf.sprintf
        "host_cpu_free > 0.%02d\n\
         host_memory_free > %d\n\
         monitor_network_bw > 1\n\
         host_security_level >= %d\n\
         order_by = %s\n"
        (10 + Smart_util.Prng.int rng ~bound:36)
        (100 + Smart_util.Prng.int rng ~bound:300)
        (1 + (k mod 2))
        orders.(k mod Array.length orders))

let churn_texts ~seed =
  let rng = Smart_util.Prng.create ~seed:(seed + 29) in
  let statements =
    [|
      (fun () -> Printf.sprintf "host_cpu_free > %.2f" (range rng 0.0 0.9));
      (fun () -> Printf.sprintf "host_system_load1 < %.2f" (range rng 0.5 4.0));
      (fun () -> Printf.sprintf "host_memory_free > %.0f" (range rng 0.0 900.0));
      (fun () -> Printf.sprintf "monitor_network_bw > %.1f" (range rng 8.0 80.0));
      (fun () -> Printf.sprintf "monitor_network_delay < %.2f" (range rng 1.0 10.0));
      (fun () ->
        Printf.sprintf "host_security_level >= %d"
          (1 + Smart_util.Prng.int rng ~bound:4));
      (fun () -> Printf.sprintf "host_cpu_bogomips > %.0f" (range rng 1000.0 3800.0));
    |]
  in
  let hosts prefix =
    let k = 1 + Smart_util.Prng.int rng ~bound:3 in
    String.concat ""
      (List.init k (fun j ->
           Printf.sprintf "%s%d = %s\n" prefix (j + 1)
             (churn_host (Smart_util.Prng.int rng ~bound:churn_servers))))
  in
  (* statement count, order_by and host lists cycle with the text index,
     so every seed gets the same shares of each shape *)
  distinct 4096 (fun k ->
      let n = 1 + (k mod 4) in
      let chosen =
        Array.sub (Smart_util.Prng.shuffle rng (Array.init 7 Fun.id)) 0 n
      in
      Array.sort Int.compare chosen;
      let body =
        String.concat ""
          (Array.to_list (Array.map (fun s -> statements.(s) () ^ "\n") chosen))
      in
      let order_by =
        if k / 4 mod 2 = 0 then
          "order_by = "
          ^ pick rng
              [| "host_memory_free"; "host_cpu_free"; "host_cpu_bogomips";
                 "monitor_network_bw" |]
          ^ "\n"
        else ""
      in
      let preferred = if k / 8 mod 8 = 0 then hosts "user_preferred_host" else "" in
      let denied = if k / 8 mod 8 = 1 then hosts "user_denied_host" else "" in
      body ^ order_by ^ preferred ^ denied)

(* Each text bounds the bogomips band to shards [a, a + w), so digest
   routing sends it to exactly [w] shards.  Widths 1-8 appear equally
   often whatever the seed, which keeps the fan-out per request the
   same from seed to seed. *)
let fed_texts ~seed =
  let rng = Smart_util.Prng.create ~seed:(seed + 41) in
  distinct 64 (fun k ->
      let w = 1 + (k mod fed_shards) in
      let a = (k / fed_shards + Smart_util.Prng.int rng ~bound:fed_shards) mod (fed_shards + 1 - w) in
      Printf.sprintf
        "host_cpu_bogomips >= %d\n\
         host_cpu_bogomips < %d\n\
         host_cpu_free > 0.%02d\n\
         host_memory_free > %d\n\
         %s"
        (fed_band_lo a) (fed_band_lo (a + w))
        (10 + Smart_util.Prng.int rng ~bound:70)
        (100 + Smart_util.Prng.int rng ~bound:700)
        (pick rng
           [| ""; "order_by = host_memory_free\n"; "order_by = host_cpu_free\n" |]))

(* ------------------------------------------------------------------ *)
(* Request pools                                                        *)
(* ------------------------------------------------------------------ *)

(* One generated request: which text, how many servers, which client,
   and the datagram as the client would send it. *)
type request = { text : int; wanted : int; client : int; datagram : string }

let encode ~seq ~wanted requirement =
  P.Wizard_msg.encode_request
    {
      P.Wizard_msg.seq;
      server_num = wanted;
      option = P.Wizard_msg.Accept_partial;
      requirement;
      trace = Smart_util.Tracelog.root;
    }

let pool ~size ~texts ~draw =
  Array.init size (fun i ->
      let text, wanted, client = draw () in
      { text; wanted; client; datagram = encode ~seq:(i + 1) ~wanted texts.(text) })

(* Zipf(1) over [n] items: item k drawn with weight 1/(k+1). *)
let zipf rng n =
  let cdf = Array.make n 0.0 in
  let total = ref 0.0 in
  for k = 0 to n - 1 do
    total := !total +. (1.0 /. float_of_int (k + 1));
    cdf.(k) <- !total
  done;
  fun () ->
    let u = Smart_util.Prng.float rng ~bound:!total in
    let rec find k = if k >= n - 1 || cdf.(k) > u then k else find (k + 1) in
    find 0
