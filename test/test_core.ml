(* Tests for the core components: status databases, probe, monitors,
   transmitter/receiver, selection, wizard, client, and the deployed
   simulation driver (end-to-end flows, staleness, failure injection,
   centralized vs distributed modes). *)

module C = Smart_core
module P = Smart_proto
module H = Smart_host
module O = Smart_oracle
module S = Smart_experiments.Scenario

(* Registry reads for assertions.  [Metrics.counter_value] and
   [gauge_value] read 0 for a name the registry does not hold; these
   fail on it, so a misspelled name cannot pass an assertion of 0. *)
let registered m name =
  match Smart_util.Metrics.find m name with
  | Some value -> value
  | None -> Alcotest.failf "no metric %s in the registry" name

let counter_value m name =
  match registered m name with
  | Smart_util.Metrics.Counter n -> n
  | _ -> Alcotest.failf "metric %s is not a counter" name

let gauge_value m name =
  match registered m name with
  | Smart_util.Metrics.Gauge v -> v
  | _ -> Alcotest.failf "metric %s is not a gauge" name

(* Reads of a status database through its production views. *)
let sweep_sys db ~now ~max_age =
  List.length (C.Status_db.sweep_sys_expired db ~now ~max_age)

let security_level db ~host =
  List.find_map
    (fun (e : P.Records.sec_entry) ->
      if String.equal e.P.Records.host host then Some e.P.Records.level else None)
    (C.Status_db.sec_record db).P.Records.entries

(* The network records [db] holds from [monitors], in their order. *)
let net_records db ~monitors =
  List.filter_map (fun monitor -> C.Status_db.find_net db ~monitor) monitors

(* Host failures on a simulated cluster: a failed machine's probe goes
   silent; a partitioned host's every channel drops everything. *)
let set_failed c host failed =
  H.Machine.set_failed (H.Cluster.machine c (H.Cluster.resolve_exn c host)) failed

let set_partitioned c host on =
  let node = H.Cluster.resolve_exn c host in
  Smart_net.Topology.iter_channels (H.Cluster.topology c) (fun l ->
      if l.Smart_net.Link.src = node || l.Smart_net.Link.dst = node then
        Smart_net.Link.set_partitioned l on)

let report ?(host = "helene") ?(ip = "192.168.2.3") ?(cpu_free = 0.9)
    ?(load1 = 0.1) ?(mem_free = 100.0) ?(bogomips = 3394.76) () =
  {
    P.Report.host;
    ip;
    load1;
    load5 = load1;
    load15 = load1;
    cpu_user = 1.0 -. cpu_free;
    cpu_nice = 0.0;
    cpu_system = 0.0;
    cpu_free;
    bogomips;
    mem_total = 256.0;
    mem_used = 256.0 -. mem_free;
    mem_free;
    mem_buffers = 10.0;
    mem_cached = 10.0;
    disk_rreq = 0.0;
    disk_rblocks = 0.0;
    disk_wreq = 0.0;
    disk_wblocks = 0.0;
    net_rbytes = 0.0;
    net_rpackets = 0.0;
    net_tbytes = 0.0;
    net_tpackets = 0.0;
  }

let sys_record ?host ?ip ?cpu_free ?load1 ?mem_free ?bogomips ~at () =
  {
    P.Records.report = report ?host ?ip ?cpu_free ?load1 ?mem_free ?bogomips ();
    updated_at = at;
  }

(* ------------------------------------------------------------------ *)
(* Status_db                                                            *)
(* ------------------------------------------------------------------ *)

let test_db_sys_update_and_replace () =
  let db = C.Status_db.create () in
  C.Status_db.update_sys db (sys_record ~at:1.0 ());
  C.Status_db.update_sys db (sys_record ~at:2.0 ());
  Alcotest.(check int) "replaced, not duplicated" 1 (C.Status_db.sys_count db);
  match C.Status_db.find_sys db ~host:"helene" with
  | Some r -> Alcotest.(check (float 1e-9)) "latest wins" 2.0 r.P.Records.updated_at
  | None -> Alcotest.fail "record missing"

let test_db_sweep () =
  let db = C.Status_db.create () in
  C.Status_db.update_sys db (sys_record ~host:"old" ~ip:"1.1.1.1" ~at:0.0 ());
  C.Status_db.update_sys db (sys_record ~host:"new" ~ip:"1.1.1.2" ~at:9.0 ());
  Alcotest.(check int) "one dropped" 1
    (sweep_sys db ~now:10.0 ~max_age:6.0);
  Alcotest.(check bool) "old gone" true
    (C.Status_db.find_sys db ~host:"old" = None);
  Alcotest.(check bool) "new kept" true
    (C.Status_db.find_sys db ~host:"new" <> None)

let test_db_net_entry_for () =
  let db = C.Status_db.create () in
  C.Status_db.update_net db
    {
      P.Records.monitor = "mon";
      entries =
        [ { P.Records.peer = "helene"; delay = 0.001; bandwidth = 1e6;
            measured_at = 0.0 } ];
    };
  (match C.Status_db.net_entry_for db ~target:"helene" with
  | Some e -> Alcotest.(check (float 1e-9)) "bw" 1e6 e.P.Records.bandwidth
  | None -> Alcotest.fail "entry missing");
  Alcotest.(check bool) "unknown target" true
    (C.Status_db.net_entry_for db ~target:"x" = None)

let test_db_sec () =
  let db = C.Status_db.create () in
  C.Status_db.replace_sec db
    { P.Records.entries = [ { P.Records.host = "a"; level = 4 } ] };
  Alcotest.(check (option int)) "level" (Some 4)
    (security_level db ~host:"a");
  C.Status_db.replace_sec db
    { P.Records.entries = [ { P.Records.host = "b"; level = 1 } ] };
  Alcotest.(check (option int)) "replaced wholesale" None
    (security_level db ~host:"a")

let net_entry ?(delay = 0.001) ?(bandwidth = 1e6) ?(measured_at = 0.0) peer =
  { P.Records.peer; delay; bandwidth; measured_at }

let test_db_generation () =
  let db = C.Status_db.create () in
  let g0 = C.Status_db.generation db in
  C.Status_db.update_sys db (sys_record ~at:1.0 ());
  Alcotest.(check bool) "sys write bumps" true (C.Status_db.generation db > g0);
  let g1 = C.Status_db.generation db in
  C.Status_db.update_net db
    { P.Records.monitor = "mon"; entries = [ net_entry "helene" ] };
  Alcotest.(check bool) "net write bumps" true (C.Status_db.generation db > g1);
  let g2 = C.Status_db.generation db in
  C.Status_db.replace_sec db
    { P.Records.entries = [ { P.Records.host = "a"; level = 1 } ] };
  Alcotest.(check bool) "sec write bumps" true (C.Status_db.generation db > g2);
  let g3 = C.Status_db.generation db in
  (* re-storing the same security table changes nothing *)
  ignore
    (C.Status_db.columns db ~net_for:(fun target ->
         C.Status_db.net_entry_for db ~target));
  C.Status_db.replace_sec db
    { P.Records.entries = [ { P.Records.host = "a"; level = 1 } ] };
  Alcotest.(check int) "identical sec write keeps generation" g3
    (C.Status_db.generation db);
  Alcotest.(check bool) "identical sec write keeps the snapshot fresh" true
    (C.Status_db.columns_fresh db);
  (* removing an absent host must not move the generation *)
  C.Status_db.remove_sys db ~host:"nobody";
  Alcotest.(check int) "no-op remove keeps generation" g3
    (C.Status_db.generation db);
  C.Status_db.remove_sys db ~host:"helene";
  Alcotest.(check bool) "real remove bumps" true
    (C.Status_db.generation db > g3);
  (* batched writes cost a single generation *)
  let g4 = C.Status_db.generation db in
  C.Status_db.update_sys_many db
    [
      sys_record ~host:"x" ~ip:"1.1.1.1" ~at:2.0 ();
      sys_record ~host:"y" ~ip:"1.1.1.2" ~at:2.0 ();
    ];
  Alcotest.(check int) "batch = one bump" (g4 + 1) (C.Status_db.generation db);
  C.Status_db.update_sys_many db [];
  Alcotest.(check int) "empty batch = no bump" (g4 + 1)
    (C.Status_db.generation db)

let test_db_sweep_generation () =
  let db = C.Status_db.create () in
  C.Status_db.update_sys db (sys_record ~host:"old" ~ip:"1.1.1.1" ~at:0.0 ());
  C.Status_db.update_sys db (sys_record ~host:"new" ~ip:"1.1.1.2" ~at:9.0 ());
  let g = C.Status_db.generation db in
  Alcotest.(check int) "idle sweep removes nothing" 0
    (sweep_sys db ~now:10.0 ~max_age:60.0);
  Alcotest.(check int) "idle sweep keeps generation" g
    (C.Status_db.generation db);
  Alcotest.(check int) "real sweep removes" 1
    (sweep_sys db ~now:10.0 ~max_age:6.0);
  Alcotest.(check bool) "real sweep bumps" true (C.Status_db.generation db > g)

let test_db_sys_records_cached () =
  let db = C.Status_db.create () in
  C.Status_db.update_sys db (sys_record ~host:"b" ~ip:"1.1.1.2" ~at:1.0 ());
  C.Status_db.update_sys db (sys_record ~host:"a" ~ip:"1.1.1.1" ~at:1.0 ());
  let first = C.Status_db.sys_records db in
  Alcotest.(check (list string)) "sorted by host" [ "a"; "b" ]
    (List.map (fun r -> r.P.Records.report.P.Report.host) first);
  Alcotest.(check bool) "same generation reuses the snapshot" true
    (first == C.Status_db.sys_records db);
  C.Status_db.update_sys db (sys_record ~host:"c" ~ip:"1.1.1.3" ~at:1.0 ());
  let second = C.Status_db.sys_records db in
  Alcotest.(check bool) "write invalidates" false (first == second);
  Alcotest.(check int) "rebuilt view sees the write" 3 (List.length second)

(* The winner among several monitors reporting the same peer must not
   depend on hashtable iteration or insertion order: freshest
   measured_at first, lowest monitor name on ties. *)
let test_db_net_entry_deterministic () =
  let records =
    [
      { P.Records.monitor = "mz";
        entries = [ net_entry ~bandwidth:1e6 ~measured_at:5.0 "peer" ] };
      { P.Records.monitor = "ma";
        entries = [ net_entry ~bandwidth:2e6 ~measured_at:9.0 "peer" ] };
      { P.Records.monitor = "mb";
        entries = [ net_entry ~bandwidth:3e6 ~measured_at:9.0 "peer" ] };
    ]
  in
  let winner_with order =
    let db = C.Status_db.create () in
    List.iter (fun i -> C.Status_db.update_net db (List.nth records i)) order;
    match C.Status_db.net_entry_for db ~target:"peer" with
    | Some e -> e.P.Records.bandwidth
    | None -> Alcotest.fail "entry missing"
  in
  (* all six insertion orders agree: ma wins (measured_at 9.0, "ma" < "mb") *)
  List.iter
    (fun order ->
      Alcotest.(check (float 1e-9)) "insertion-order independent" 2e6
        (winner_with order))
    [ [0;1;2]; [0;2;1]; [1;0;2]; [1;2;0]; [2;0;1]; [2;1;0] ];
  (* re-reporting replaces the old index entries instead of stacking *)
  let db = C.Status_db.create () in
  C.Status_db.update_net db
    { P.Records.monitor = "m";
      entries = [ net_entry ~bandwidth:1e6 ~measured_at:1.0 "peer" ] };
  C.Status_db.update_net db
    { P.Records.monitor = "m";
      entries = [ net_entry ~bandwidth:7e6 ~measured_at:2.0 "peer" ] };
  (match C.Status_db.net_entry_for db ~target:"peer" with
  | Some e ->
    Alcotest.(check (float 1e-9)) "replaced, not stacked" 7e6
      e.P.Records.bandwidth
  | None -> Alcotest.fail "entry missing");
  (* a record dropping a peer removes it from the index *)
  C.Status_db.update_net db { P.Records.monitor = "m"; entries = [] };
  Alcotest.(check bool) "dropped peer unindexed" true
    (C.Status_db.net_entry_for db ~target:"peer" = None)

(* The columnar snapshot is refreshed in place for every write that
   keeps the system host set, and rebuilt only when a host joins or
   leaves.  The property drives generated write sequences through one
   database, reading [columns] after each step, and compares every
   column, [hosts] and [ips] with those of a fresh database holding the
   same state.  A step batches one to three writes, so one refresh can
   combine dirty system rows with network and security re-fills, as a
   transmitter push does. *)
type db_write =
  | W_sys of (int * int * int) list  (* one batch: host, IP variant, value *)
  | W_leave of int
  | W_sweep of int  (* max age, in writes *)
  | W_net of int * (int * int) list  (* monitor, (peer, value) entries *)
  | W_resend of int * int
      (* monitor, value: its stored record re-sent over the same peers *)
  | W_sec of (int * int) list  (* host, level *)

let db_hosts = 6
let db_monitors = 3
let db_host i = Printf.sprintf "h%d" i
let db_monitor i = Printf.sprintf "m%d" i

(* peers 0-5 are servers, 6-8 the group monitors *)
let db_peer i = if i < db_hosts then db_host i else db_monitor (i - db_hosts)

let pp_db_write = function
  | W_sys batch ->
    "sys "
    ^ String.concat ","
        (List.map (fun (h, v, x) -> Printf.sprintf "h%d/ip%d/%d" h v x) batch)
  | W_leave h -> Printf.sprintf "leave h%d" h
  | W_sweep age -> Printf.sprintf "sweep %d" age
  | W_net (m, entries) ->
    Printf.sprintf "net m%d %s" m
      (String.concat ","
         (List.map (fun (p, x) -> Printf.sprintf "%s/%d" (db_peer p) x) entries))
  | W_resend (m, x) -> Printf.sprintf "resend m%d/%d" m x
  | W_sec entries ->
    "sec "
    ^ String.concat ","
        (List.map (fun (h, l) -> Printf.sprintf "h%d/%d" h l) entries)

let gen_db_write =
  QCheck.Gen.(
    let host = int_range 0 (db_hosts - 1) in
    frequency
      [
        ( 4,
          map
            (fun batch -> W_sys batch)
            (list_size (int_range 1 4)
               (triple host (int_range 0 1) (int_range 0 3))) );
        (1, map (fun h -> W_leave h) host);
        (1, map (fun age -> W_sweep age) (int_range 0 8));
        ( 2,
          map2
            (fun m entries -> W_net (m, entries))
            (int_range 0 (db_monitors - 1))
            (list_size (int_range 0 4)
               (pair (int_range 0 (db_hosts + db_monitors - 1)) (int_range 0 3)))
        );
        ( 1,
          map2
            (fun m x -> W_resend (m, x))
            (int_range 0 (db_monitors - 1))
            (int_range 0 3) );
        ( 2,
          map
            (fun entries -> W_sec entries)
            (list_size (int_range 0 4) (pair host (int_range 0 4))) );
      ])

let arbitrary_db_steps =
  QCheck.make
    ~print:(fun steps ->
      String.concat "\n"
        (List.map
           (fun step -> String.concat "; " (List.map pp_db_write step))
           steps))
    QCheck.Gen.(
      list_size (int_range 1 12) (list_size (int_range 1 3) gen_db_write))

(* The same state in a database that never built a snapshot. *)
let fresh_copy db ~monitors =
  let copy = C.Status_db.create () in
  C.Status_db.update_sys_many copy (C.Status_db.sys_records db);
  List.iter (C.Status_db.update_net copy) (net_records db ~monitors);
  C.Status_db.replace_sec copy (C.Status_db.sec_record db);
  copy

let same_view (a : C.Status_db.column_view) (b : C.Status_db.column_view) =
  let module B = Smart_lang.Bytecode in
  let ca = a.C.Status_db.cols and cb = b.C.Status_db.cols in
  let n = ca.B.n in
  let floats x y =
    let ok = ref true in
    for row = 0 to n - 1 do
      if not (Float.equal (Bigarray.Array1.get x row) (Bigarray.Array1.get y row))
      then ok := false
    done;
    !ok
  in
  let flags x y =
    let ok = ref true in
    for row = 0 to n - 1 do
      if Bigarray.Array1.get x row <> Bigarray.Array1.get y row then ok := false
    done;
    !ok
  in
  let sys_ok = ref true in
  for field = 0 to B.sys_field_count - 1 do
    for row = 0 to n - 1 do
      if
        not
          (Float.equal
             (Bigarray.Array2.get ca.B.sys field row)
             (Bigarray.Array2.get cb.B.sys field row))
      then sys_ok := false
    done
  done;
  n = cb.B.n
  && Array.for_all2 String.equal a.C.Status_db.hosts b.C.Status_db.hosts
  && Array.for_all2 String.equal a.C.Status_db.ips b.C.Status_db.ips
  && !sys_ok
  && floats ca.B.net_delay cb.B.net_delay
  && floats ca.B.net_bw cb.B.net_bw
  && flags ca.B.has_net cb.B.has_net
  && floats ca.B.sec_level cb.B.sec_level
  && flags ca.B.has_sec cb.B.has_sec

(* h0-h1 sit in the wizard's own group (m0), h2-h3 behind m1, h4 behind
   m2; h5 has no group and falls back to the direct lookup. *)
let db_groups =
  {
    C.Wizard.local_monitor = db_monitor 0;
    group_of =
      (fun host ->
        match host with
        | "h0" | "h1" -> Some (db_monitor 0)
        | "h2" | "h3" -> Some (db_monitor 1)
        | "h4" -> Some (db_monitor 2)
        | _ -> None);
  }

let apply_db_write db ~clock write =
  incr clock;
  let now = float_of_int !clock in
  match write with
  | W_sys batch ->
    C.Status_db.update_sys_many db
      (List.map
         (fun (h, v, x) ->
           sys_record ~host:(db_host h)
             ~ip:(Printf.sprintf "10.%d.0.%d" v h)
             ~cpu_free:(0.25 *. float_of_int x)
             ~mem_free:(float_of_int (50 * x))
             ~at:now ())
         batch)
  | W_leave h -> C.Status_db.remove_sys db ~host:(db_host h)
  | W_sweep age ->
    ignore
      (C.Status_db.sweep_sys_expired db ~now ~max_age:(float_of_int age))
  | W_net (m, entries) ->
    C.Status_db.update_net db
      {
        P.Records.monitor = db_monitor m;
        entries =
          List.map
            (fun (p, x) ->
              net_entry
                ~delay:(0.001 *. float_of_int (x + 1))
                ~bandwidth:(1e5 *. float_of_int (x + 1))
                ~measured_at:(float_of_int x) (db_peer p))
            entries;
      }
  | W_resend (m, x) ->
    (match C.Status_db.find_net db ~monitor:(db_monitor m) with
    | None -> ()
    | Some record ->
      C.Status_db.update_net db
        {
          record with
          P.Records.entries =
            List.map
              (fun (e : P.Records.net_entry) ->
                net_entry
                  ~delay:(0.001 *. float_of_int (x + 1))
                  ~bandwidth:(e.P.Records.bandwidth +. 1e5)
                  ~measured_at:(float_of_int x) e.P.Records.peer)
              record.P.Records.entries;
        })
  | W_sec entries ->
    C.Status_db.replace_sec db
      {
        P.Records.entries =
          List.map (fun (h, level) -> { P.Records.host = db_host h; level }) entries;
      }

let prop_refresh_matches_rebuild ~name ~groups =
  QCheck.Test.make ~name ~count:300 arbitrary_db_steps (fun steps ->
      let net_for db =
        match groups with
        | None -> fun host -> C.Status_db.net_entry_for db ~target:host
        | Some groups ->
          let wizard =
            C.Wizard.create
              { C.Wizard.mode = C.Wizard.Centralized; groups = Some groups }
              db
          in
          fun host -> C.Wizard.net_entry_for wizard ~host
      in
      let db = C.Status_db.create () in
      let lookup = net_for db in
      let clock = ref 0 in
      List.for_all
        (fun step ->
          List.iter (apply_db_write db ~clock) step;
          let view = C.Status_db.columns db ~net_for:lookup in
          let copy =
            fresh_copy db ~monitors:(List.init db_monitors db_monitor)
          in
          same_view view (C.Status_db.columns copy ~net_for:(net_for copy)))
        steps)

let prop_refresh_matches_rebuild_flat =
  prop_refresh_matches_rebuild ~name:"refresh = rebuild (flat)" ~groups:None

let prop_refresh_matches_rebuild_grouped =
  prop_refresh_matches_rebuild ~name:"refresh = rebuild (groups)"
    ~groups:(Some db_groups)

(* ------------------------------------------------------------------ *)
(* Probe                                                                *)
(* ------------------------------------------------------------------ *)

let probe_config =
  {
    C.Probe.host = "helene";
    ip = "192.168.2.3";
    bogomips = 3394.76;
    monitor = { C.Output.host = "mon"; port = P.Ports.sysmon };
    iface = "eth0";
  }

let snapshot_of machine ~now = H.Procfs.snapshot_of_machine machine ~now

let test_probe_first_tick () =
  let machine = H.Machine.create (H.Testbed.spec_of_name "helene") in
  let probe = C.Probe.create probe_config in
  match C.Probe.tick probe ~now:0.0 ~snapshot:(snapshot_of machine ~now:0.0) with
  | Ok (r, outputs) ->
    Alcotest.(check string) "host" "helene" r.P.Report.host;
    Alcotest.(check (float 1e-9)) "first tick idle" 1.0 r.P.Report.cpu_free;
    Alcotest.(check (float 1e-9)) "no rates yet" 0.0 r.P.Report.net_tbytes;
    Alcotest.(check int) "one datagram" 1 (List.length outputs);
    (match outputs with
    | [ C.Output.Udp { dst; data } ] ->
      Alcotest.(check string) "to monitor" "mon" dst.C.Output.host;
      Alcotest.(check int) "sysmon port" P.Ports.sysmon dst.C.Output.port;
      Alcotest.(check bool) "parseable" true
        (Result.is_ok (P.Report.decode data))
    | _ -> Alcotest.fail "expected one UDP output")
  | Error e -> Alcotest.failf "tick failed: %s" e

let test_probe_rates_from_deltas () =
  let machine = H.Machine.create (H.Testbed.spec_of_name "helene") in
  let probe = C.Probe.create probe_config in
  ignore (C.Probe.tick probe ~now:0.0 ~snapshot:(snapshot_of machine ~now:0.0));
  (* between the ticks: half-loaded CPU, 10 KB/s transmitted *)
  ignore (H.Machine.add_workload machine ~now:0.0 (H.Machine.cpu_hog ~demand:0.5));
  H.Machine.count_tx machine ~bytes:100_000.0;
  match
    C.Probe.tick probe ~now:10.0 ~snapshot:(snapshot_of machine ~now:10.0)
  with
  | Ok (r, _) ->
    Alcotest.(check (float 0.02)) "cpu busy fraction" 0.5 r.P.Report.cpu_user;
    Alcotest.(check (float 0.02)) "cpu free fraction" 0.5 r.P.Report.cpu_free;
    Alcotest.(check (float 100.0)) "tx rate" 10_000.0 r.P.Report.net_tbytes
  | Error e -> Alcotest.failf "tick failed: %s" e

let test_probe_bad_snapshot () =
  let probe = C.Probe.create probe_config in
  let bad =
    {
      H.Procfs.loadavg_text = "garbage";
      stat_text = "";
      meminfo_text = "";
      netdev_text = "";
    }
  in
  Alcotest.(check bool) "error surfaces" true
    (Result.is_error (C.Probe.tick probe ~now:0.0 ~snapshot:bad))

let test_probe_missing_iface () =
  let machine = H.Machine.create (H.Testbed.spec_of_name "helene") in
  let probe = C.Probe.create { probe_config with C.Probe.iface = "eth7" } in
  Alcotest.(check bool) "missing iface reported" true
    (Result.is_error
       (C.Probe.tick probe ~now:0.0 ~snapshot:(snapshot_of machine ~now:0.0)))

(* ------------------------------------------------------------------ *)
(* Sysmon                                                               *)
(* ------------------------------------------------------------------ *)

let test_sysmon_ingest_and_expire () =
  let db = C.Status_db.create () in
  let m = Smart_util.Metrics.create () in
  let sysmon =
    C.Sysmon.create ~metrics:m
      ~config:
        { C.Sysmon.probe_interval = 2.0; missed_intervals = 3 }
      db
  in
  let data = P.Report.to_string (report ()) in
  (match C.Sysmon.handle_report sysmon ~now:1.0 data with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "ingest failed: %s" e);
  Alcotest.(check int) "stored" 1 (C.Status_db.sys_count db);
  Alcotest.(check int) "no expiry yet" 0 (C.Sysmon.sweep sysmon ~now:6.9);
  Alcotest.(check int) "expired after 3 intervals" 1
    (C.Sysmon.sweep sysmon ~now:7.1);
  Alcotest.(check int) "gone" 0 (C.Status_db.sys_count db);
  Alcotest.(check bool) "garbage counted" true
    (Result.is_error (C.Sysmon.handle_report sysmon ~now:8.0 "junk"));
  Alcotest.(check int) "parse errors" 1
    (counter_value m "sysmon.parse_errors_total");
  Alcotest.(check int) "handled count" 1
    (counter_value m "sysmon.reports_total")

(* ------------------------------------------------------------------ *)
(* Netmon / Secmon                                                      *)
(* ------------------------------------------------------------------ *)

let test_netmon_sequential_probing () =
  let db = C.Status_db.create () in
  let m = Smart_util.Metrics.create () in
  let netmon =
    C.Netmon.create ~metrics:m
      { C.Netmon.monitor_name = "mon"; targets = [ "a"; "b"; "c" ] }
      db
  in
  let order = ref [] in
  let prober ~target =
    order := target :: !order;
    {
      C.Netmon.sent_bytes = 100;
      result =
        (if target = "b" then None
         else Some { C.Netmon.delay = 0.001; bandwidth = 1e6 });
    }
  in
  let record = C.Netmon.probe_all netmon ~now:5.0 ~prober in
  Alcotest.(check (list string)) "strict order" [ "a"; "b"; "c" ]
    (List.rev !order);
  Alcotest.(check int) "failed target dropped" 2
    (List.length record.P.Records.entries);
  Alcotest.(check int) "failures counted" 1
    (counter_value m "netmon.probe_failures_total");
  Alcotest.(check int) "bytes counted, the failed probe's too" 300
    (counter_value m "netmon.probe_bytes_total");
  Alcotest.(check bool) "published" true
    (C.Status_db.net_entry_for db ~target:"c" <> None)

(* Table 5.2's network-monitor row reads this counter.  dalmatian probes
   the other 10 machines of the icpp2005 deployment: three 56-byte pings
   and [trials] pairs of 1600- and 2900-byte datagrams each, so
   10 x (168 + 2 x 4500) = 91,680 bytes.  Its own host costs nothing. *)
let test_netmon_probe_bytes () =
  let c = Smart_host.Testbed.icpp2005 () in
  let d =
    C.Simdriver.deploy c ~monitor:"dalmatian" ~wizard_host:"dalmatian"
      ~servers:Smart_host.Testbed.machine_names
  in
  let record = C.Simdriver.refresh_netmon ~trials:2 d in
  Alcotest.(check int) "one entry per machine" 11
    (List.length record.P.Records.entries);
  Alcotest.(check int) "payload bytes probed" 91_680
    (counter_value (C.Simdriver.metrics d) "netmon.probe_bytes_total")

let test_secmon () =
  let db = C.Status_db.create () in
  let secmon = C.Secmon.create db in
  (match C.Secmon.refresh_from_log secmon "a 5\nb 2\n" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "refresh failed: %s" e);
  Alcotest.(check (option int)) "level" (Some 5)
    (security_level db ~host:"a");
  Alcotest.(check (result unit string)) "bad log errors"
    (Error "security log: bad level for a")
    (Result.map ignore (C.Secmon.refresh_from_log secmon "a x\n"))

(* ------------------------------------------------------------------ *)
(* Transmitter / Receiver                                               *)
(* ------------------------------------------------------------------ *)

let test_transmitter_receiver_roundtrip () =
  let db_mon = C.Status_db.create () in
  C.Status_db.update_sys db_mon (sys_record ~at:1.0 ());
  C.Status_db.update_net db_mon
    {
      P.Records.monitor = "mon";
      entries =
        [ { P.Records.peer = "helene"; delay = 0.002; bandwidth = 2e6;
            measured_at = 1.0 } ];
    };
  C.Status_db.replace_sec db_mon
    { P.Records.entries = [ { P.Records.host = "helene"; level = 3 } ] };
  let tx =
    C.Transmitter.create ~monitor_name:"mon"
      {
        C.Transmitter.mode = C.Transmitter.Centralized;
        order = P.Endian.Little;
        receiver = { C.Output.host = "wiz"; port = P.Ports.receiver };
      }
      db_mon
  in
  let db_wiz = C.Status_db.create () in
  let m = Smart_util.Metrics.create () in
  let rx = C.Receiver.create ~metrics:m ~order:P.Endian.Little db_wiz in
  (match C.Transmitter.tick tx ~now:0.0 with
  | [ C.Output.Stream { dst; data } ] ->
    Alcotest.(check int) "receiver port" P.Ports.receiver dst.C.Output.port;
    (* feed in two arbitrary chunks to exercise reassembly *)
    let half = String.length data / 2 in
    (match C.Receiver.handle_stream rx ~from:"mon" (String.sub data 0 half) with
    | Ok () -> ()
    | Error e -> Alcotest.failf "first chunk: %s" e);
    (match
       C.Receiver.handle_stream rx ~from:"mon"
         (String.sub data half (String.length data - half))
     with
    | Ok () -> ()
    | Error e -> Alcotest.failf "second chunk: %s" e)
  | _ -> Alcotest.fail "expected one stream output");
  Alcotest.(check int) "three frames" 3
    (counter_value m "receiver.frames_total");
  Alcotest.(check bool) "sys mirrored" true
    (C.Status_db.find_sys db_wiz ~host:"helene" <> None);
  (match C.Status_db.net_entry_for db_wiz ~target:"helene" with
  | Some e -> Alcotest.(check (float 1e-9)) "net mirrored" 2e6 e.P.Records.bandwidth
  | None -> Alcotest.fail "net entry missing");
  Alcotest.(check (option int)) "sec mirrored" (Some 3)
    (security_level db_wiz ~host:"helene")

let test_transmitter_modes () =
  let db = C.Status_db.create () in
  let mk mode =
    C.Transmitter.create ~monitor_name:"mon"
      {
        C.Transmitter.mode;
        order = P.Endian.Little;
        receiver = { C.Output.host = "wiz"; port = P.Ports.receiver };
      }
      db
  in
  let active = mk C.Transmitter.Centralized in
  Alcotest.(check int) "centralized pushes on tick" 1
    (List.length (C.Transmitter.tick active ~now:0.0));
  Alcotest.(check int) "centralized ignores pulls" 0
    (List.length
       (C.Transmitter.handle_pull active ~data:C.Transmitter.pull_request_magic));
  let passive = mk C.Transmitter.Distributed in
  Alcotest.(check int) "distributed silent on tick" 0
    (List.length (C.Transmitter.tick passive ~now:0.0));
  Alcotest.(check int) "distributed answers pulls" 1
    (List.length
       (C.Transmitter.handle_pull passive ~data:C.Transmitter.pull_request_magic));
  Alcotest.(check int) "bad magic ignored" 0
    (List.length (C.Transmitter.handle_pull passive ~data:"nope"))

let test_receiver_update_hook () =
  let db = C.Status_db.create () in
  let rx = C.Receiver.create ~order:P.Endian.Little db in
  let count = ref 0 in
  C.Receiver.set_update_hook rx (Some (fun _ -> incr count));
  let frame =
    P.Frame.encode P.Endian.Little
      {
        P.Frame.payload_type = P.Frame.Sec_db;
        data = P.Records.encode_sec P.Endian.Little { P.Records.entries = [] };
        trace = Smart_util.Tracelog.root;
      }
  in
  (match C.Receiver.handle_stream rx ~from:"m" frame with
  | Ok () -> ()
  | Error e -> Alcotest.failf "stream: %s" e);
  Alcotest.(check int) "hook fired" 1 !count

(* ------------------------------------------------------------------ *)
(* Selection                                                            *)
(* ------------------------------------------------------------------ *)

let view ?host ?ip ?cpu_free ?load1 ?mem_free ?bogomips ?net ?security_level ()
    =
  {
    O.Selection.record =
      sys_record ?host ?ip ?cpu_free ?load1 ?mem_free ?bogomips ~at:0.0 ();
    net;
    security_level;
  }

let view_host (v : O.Selection.server_view) =
  v.O.Selection.record.P.Records.report.P.Report.host

let compile src =
  match Smart_lang.Requirement.compile src with
  | Ok p -> p
  | Error e ->
    Alcotest.failf "compile: %a" Smart_lang.Requirement.pp_compile_error e

let compile_fast src =
  match Smart_lang.Requirement.compile_fast src with
  | Ok fast -> fast
  | Error e ->
    Alcotest.failf "compile: %a" Smart_lang.Requirement.pp_compile_error e

(* The wizard's answer for ad-hoc views: load them into a status
   database and run the columnar selection over it.  Fails unless the
   reference selection over the same views, in the database's scan
   order (sorted by host), picks the same hosts. *)
let select ~requirement ~servers ~wanted =
  let db = C.Status_db.create () in
  List.iter (fun v -> C.Status_db.update_sys db v.O.Selection.record) servers;
  let clearances =
    List.filter_map
      (fun v ->
        Option.map
          (fun level -> { P.Records.host = view_host v; level })
          v.O.Selection.security_level)
      servers
  in
  if clearances <> [] then
    C.Status_db.replace_sec db { P.Records.entries = clearances };
  let view_of host =
    List.find (fun v -> String.equal (view_host v) host) servers
  in
  let net_for host = (view_of host).O.Selection.net in
  let got =
    C.Selection.select_columns (C.Selection.scratch ())
      ~fast:(compile_fast requirement)
      ~view:(C.Status_db.columns db ~net_for)
      ~wanted
  in
  let reference =
    O.Selection.select ~requirement:(compile requirement)
      ~servers:
        (List.map
           (fun (r : P.Records.sys_record) ->
             view_of r.P.Records.report.P.Report.host)
           (C.Status_db.sys_records db))
      ~wanted
  in
  Alcotest.(check (list string))
    "columnar selection agrees with the reference"
    reference.O.Selection.selected got;
  got

let test_selection_filters () =
  let servers =
    [
      view ~host:"fast" ~ip:"1.0.0.1" ~cpu_free:0.95 ();
      view ~host:"busy" ~ip:"1.0.0.2" ~cpu_free:0.2 ();
      view ~host:"idle" ~ip:"1.0.0.3" ~cpu_free:0.99 ();
    ]
  in
  let r = select ~requirement:"host_cpu_free > 0.9\n" ~servers ~wanted:10 in
  Alcotest.(check (list string)) "only qualified, scan order"
    [ "fast"; "idle" ] r;
  let reference =
    O.Selection.select
      ~requirement:(compile "host_cpu_free > 0.9\n")
      ~servers ~wanted:10
  in
  Alcotest.(check int) "verdicts for all" 3
    (List.length reference.O.Selection.verdicts)

let test_selection_wanted_limit () =
  let servers =
    List.init 5 (fun i ->
        view
          ~host:(Printf.sprintf "s%d" i)
          ~ip:(Printf.sprintf "1.0.0.%d" i)
          ())
  in
  let r = select ~requirement:"100 > 0\n" ~servers ~wanted:2 in
  Alcotest.(check int) "cut to wanted" 2 (List.length r)

let test_selection_denied () =
  let servers =
    [
      view ~host:"a" ~ip:"1.0.0.1" ();
      view ~host:"b" ~ip:"1.0.0.2" ();
    ]
  in
  let r =
    select
      ~requirement:"user_denied_host1 = a\n100 > 0\n"
      ~servers ~wanted:10
  in
  Alcotest.(check (list string)) "blacklist by name" [ "b" ] r;
  (* denial also matches by IP *)
  let r2 =
    select
      ~requirement:"user_denied_host1 = 1.0.0.2\n100 > 0\n"
      ~servers ~wanted:10
  in
  Alcotest.(check (list string)) "blacklist by ip" [ "a" ] r2

let test_selection_preferred_order () =
  let servers =
    [
      view ~host:"a" ~ip:"1.0.0.1" ();
      view ~host:"b" ~ip:"1.0.0.2" ();
      view ~host:"c" ~ip:"1.0.0.3" ();
    ]
  in
  let r =
    select
      ~requirement:
        "user_preferred_host1 = c\nuser_preferred_host2 = b\n100 > 0\n"
      ~servers ~wanted:10
  in
  Alcotest.(check (list string)) "preferred first, in order"
    [ "c"; "b"; "a" ] r

let test_selection_preferred_must_qualify () =
  let servers =
    [
      view ~host:"a" ~ip:"1.0.0.1" ~cpu_free:0.95 ();
      view ~host:"slowpref" ~ip:"1.0.0.2" ~cpu_free:0.1 ();
    ]
  in
  let r =
    select
      ~requirement:
        "user_preferred_host1 = slowpref\nhost_cpu_free > 0.9\n"
      ~servers ~wanted:10
  in
  Alcotest.(check (list string)) "unqualified preferred excluded" [ "a" ] r

let test_selection_monitor_bindings () =
  let net bw =
    Some { P.Records.peer = "x"; delay = 0.01; bandwidth = bw; measured_at = 0.0 }
  in
  let servers =
    [
      view ~host:"fat" ~ip:"1.0.0.1" ?net:(Some (Option.get (net (Smart_util.Units.mbps_to_bytes_per_sec 8.0)))) ();
      view ~host:"thin" ~ip:"1.0.0.2" ?net:(Some (Option.get (net (Smart_util.Units.mbps_to_bytes_per_sec 2.0)))) ();
      view ~host:"unmeasured" ~ip:"1.0.0.3" ();
    ]
  in
  let r = select ~requirement:"monitor_network_bw > 6\n" ~servers ~wanted:10 in
  (* unmeasured servers fail the bandwidth requirement (unbound -> false) *)
  Alcotest.(check (list string)) "bandwidth filter" [ "fat" ] r

let test_selection_security_binding () =
  let servers =
    [
      view ~host:"sec5" ~ip:"1.0.0.1" ~security_level:5 ();
      view ~host:"sec1" ~ip:"1.0.0.2" ~security_level:1 ();
    ]
  in
  let r =
    select ~requirement:"host_security_level >= 3\n"
      ~servers ~wanted:10
  in
  Alcotest.(check (list string)) "clearance filter" [ "sec5" ] r

let test_selection_order_by () =
  (* the Ch. 6 extension: "3 servers with largest memory" *)
  let servers =
    [
      view ~host:"small" ~ip:"1.0.0.1" ~mem_free:10.0 ();
      view ~host:"large" ~ip:"1.0.0.2" ~mem_free:200.0 ();
      view ~host:"medium" ~ip:"1.0.0.3" ~mem_free:100.0 ();
      view ~host:"tiny" ~ip:"1.0.0.4" ~mem_free:1.0 ();
    ]
  in
  let r =
    select
      ~requirement:"order_by = host_memory_free\n100 > 0\n"
      ~servers ~wanted:3
  in
  Alcotest.(check (list string)) "largest memory first"
    [ "large"; "medium"; "small" ] r;
  (* order_by composes with qualification and arbitrary expressions *)
  let r2 =
    select
      ~requirement:
        "host_memory_free > 5\norder_by = 0 - host_memory_free\n"
      ~servers ~wanted:2
  in
  Alcotest.(check (list string)) "smallest qualified first"
    [ "small"; "medium" ] r2;
  (* preferred hosts still outrank the order_by key *)
  let r3 =
    select
      ~requirement:
        "order_by = host_memory_free\nuser_preferred_host1 = tiny\n100 > 0\n"
      ~servers ~wanted:2
  in
  Alcotest.(check (list string)) "preferred beats ranking"
    [ "tiny"; "large" ] r3;
  (* without order_by, scan order (the database's, by host name) is
     preserved; these hosts' name order is not their memory order *)
  let by_name =
    [
      view ~host:"a" ~ip:"1.0.0.1" ~mem_free:1.0 ();
      view ~host:"b" ~ip:"1.0.0.2" ~mem_free:200.0 ();
      view ~host:"c" ~ip:"1.0.0.3" ~mem_free:10.0 ();
      view ~host:"d" ~ip:"1.0.0.4" ~mem_free:100.0 ();
    ]
  in
  let r4 = select ~requirement:"100 > 0\n" ~servers:by_name ~wanted:4 in
  Alcotest.(check (list string)) "scan order without order_by"
    [ "a"; "b"; "c"; "d" ] r4

let test_selection_fig14_scenario () =
  (* Fig 1.4: 12 servers in 4 networks with delays 100/5/10/15 ms; the
     user wants 3 servers with delay < 20 ms, cpu < 10%, 100 MB free
     memory, and hacker.some.net blacklisted *)
  let mk name ip delay_ms cpu_free mem_free =
    view ~host:name ~ip ~cpu_free ~mem_free
      ?net:(Some
              {
                P.Records.peer = name;
                delay = delay_ms /. 1000.0;
                bandwidth = 12.5e6;
                measured_at = 0.0;
              })
      ()
  in
  let servers =
    [
      mk "a1" "10.0.1.1" 100.0 0.95 200.0;
      mk "a2" "10.0.1.2" 100.0 0.95 200.0;
      mk "a3" "10.0.1.3" 100.0 0.95 200.0;
      mk "b1" "10.0.2.1" 5.0 0.5 200.0;   (* busy *)
      mk "b2" "10.0.2.2" 5.0 0.95 200.0;
      mk "b3" "10.0.2.3" 5.0 0.95 50.0;   (* low memory *)
      mk "c1" "10.0.3.1" 10.0 0.95 200.0;
      mk "hacker.some.net" "10.0.3.2" 10.0 0.95 200.0;
      mk "d1" "10.0.4.1" 15.0 0.95 200.0;
      mk "d2" "10.0.4.2" 15.0 0.8 200.0;  (* cpu too busy *)
    ]
  in
  let requirement =
    "monitor_network_delay < 20\n\
     host_cpu_free > 0.9\n\
     host_memory_free >= 100\n\
     user_denied_host1 = hacker.some.net\n"
  in
  let r = select ~requirement ~servers ~wanted:3 in
  Alcotest.(check (list string)) "B2, C1, D1 as in Fig 1.4"
    [ "b2"; "c1"; "d1" ] r

let test_selection_empty_and_limits () =
  (* no servers at all *)
  let r = select ~requirement:"100 > 0\n" ~servers:[] ~wanted:5 in
  Alcotest.(check (list string)) "empty pool" [] r;
  (* more qualified servers than the 60-server reply bound *)
  let servers =
    List.init 70 (fun i ->
        view
          ~host:(Printf.sprintf "s%02d" i)
          ~ip:(Printf.sprintf "10.0.%d.%d" (i / 250) (i mod 250))
          ())
  in
  let r2 = select ~requirement:"100 > 0\n" ~servers ~wanted:100 in
  Alcotest.(check int) "capped at the Table 3.6 bound"
    P.Ports.max_reply_servers
    (List.length r2)

(* A scan without order_by or preferred hosts stops at its cut, running
   the sweep plan 64 rows at a time: eligible rows spread across blocks
   must still come out as the reference selects them, deny lists and
   "no cut" included, and a preferred host late in the scan must still
   come first. *)
let test_selection_cut_across_blocks () =
  let servers =
    List.init 300 (fun i ->
        view
          ~host:(Printf.sprintf "s%04d" i)
          ~ip:(Printf.sprintf "10.2.%d.%d" (i / 250) (i mod 250))
          ~cpu_free:(if i mod 70 = 69 then 0.9 else 0.1)
          ())
  in
  let check name expected requirement wanted =
    Alcotest.(check (list string)) name expected
      (select ~requirement ~servers ~wanted)
  in
  check "first three" [ "s0069"; "s0139"; "s0209" ] "host_cpu_free > 0.5\n" 3;
  check "denied skipped" [ "s0069"; "s0209"; "s0279" ]
    "host_cpu_free > 0.5\nuser_denied_host1 = 10.2.0.139\n" 3;
  check "no cut" [ "s0069"; "s0139"; "s0209"; "s0279" ]
    "host_cpu_free > 0.5\n" (-1);
  check "late preferred first" [ "s0279"; "s0069" ]
    "host_cpu_free > 0.5\nuser_preferred_host1 = s0279\n" 2

(* ------------------------------------------------------------------ *)
(* Differential: select_columns vs the reference select                 *)
(* ------------------------------------------------------------------ *)

(* Random status databases and requirement texts: the columnar
   selection must reproduce the reference [select]'s chosen hosts
   exactly, across both the statement-major sweep shape (column-vs-
   constant conjunctions, one order column, constant host lists) and
   the general interpreter path (temps, arithmetic order keys, a host
   named through a bound temp).  Up to 48 servers and [wanted] from -1
   (no cut) to 70 (past the 60-server reply bound) make the cut bind
   often, and the bogomips column, an order key, carries NaN, -0.0 and
   0.0 to exercise the ranking's NaN rule and its ties. *)

type diff_server = {
  ds_cpu_free : float;
  ds_load1 : float;
  ds_mem_free : float;
  ds_bogomips : float;
  ds_net : (float * float) option;  (* delay s, bandwidth B/s *)
  ds_sec : int option;
}

let gen_diff_server =
  QCheck.Gen.(
    let* k = int_range 0 4 in
    let* load1 = map float_of_int (int_range 0 2) in
    let* mem_free = map (fun m -> float_of_int (50 * m)) (int_range 0 4) in
    let* bogomips =
      frequency
        [
          (6, map (fun b -> float_of_int (1000 * b)) (int_range 1 4));
          (1, return Float.nan);
          (1, return (-0.0));
          (1, return 0.0);
        ]
    in
    let* net =
      opt
        (map2
           (fun d b -> (float_of_int d /. 1000.0, float_of_int b *. 125000.0))
           (int_range 1 30) (int_range 0 8))
    in
    let* sec = opt (int_range 0 4) in
    return
      {
        ds_cpu_free = float_of_int k /. 4.0;
        ds_load1 = load1;
        ds_mem_free = mem_free;
        ds_bogomips = bogomips;
        ds_net = net;
        ds_sec = sec;
      })

let gen_diff_requirement =
  QCheck.Gen.(
    let cmp_line =
      map3
        (fun v op c -> Printf.sprintf "%s %s %s" v op c)
        (oneofl
           [
             "host_cpu_free";
             "host_memory_free";
             "host_system_load1";
             "monitor_network_bw";
             "host_security_level";
           ])
        (oneofl [ ">"; ">="; "<"; "<="; "=="; "!=" ])
        (oneofl [ "0"; "0.5"; "1"; "2"; "100" ])
    in
    let order_line =
      oneofl
        [
          "order_by = host_memory_free";
          "order_by = host_cpu_bogomips";
          "order_by = monitor_network_delay";
          "order_by = host_memory_free + 4 * host_cpu_free";
        ]
    in
    (* hosts by IP and by name; s2 is also a temp in one chunk below *)
    let param_line =
      map2
        (fun which host -> Printf.sprintf "%s = %s" which host)
        (oneofl
           [
             "user_preferred_host1"; "user_preferred_host2";
             "user_preferred_host3"; "user_denied_host1"; "user_denied_host2";
           ])
        (oneofl
           [
             "10.0.0.1"; "10.0.0.2"; "10.0.0.3"; "10.0.0.9"; "10.0.0.17";
             "10.0.0.40"; "10.0.0.99"; "s1"; "s2"; "s4"; "s17"; "s33"; "s48";
           ])
    in
    let chunk =
      frequency
        [
          (4, cmp_line);
          (1, order_line);
          (1, return "order_by = host_cpu_bogomips");
          (2, param_line);
          (1, return "t = host_cpu_free * 2\nt > 0.5");
          (1, return "s2 = 1\nuser_preferred_host1 = s2");
          (1, return "100 > 0");
        ]
    in
    map
      (fun chunks -> String.concat "\n" chunks ^ "\n")
      (list_size (int_range 1 5) chunk))

let arbitrary_selection_case =
  QCheck.make
    ~print:(fun (servers, source, wanted) ->
      Printf.sprintf "%d servers, wanted %d:\n%s" (Array.length servers) wanted
        source)
    QCheck.Gen.(
      triple
        (array_size (int_range 1 48) gen_diff_server)
        gen_diff_requirement (int_range (-1) 70))

let prop_select_columns_matches_select =
  QCheck.Test.make
    ~name:"select_columns agrees with the reference select" ~count:400
    arbitrary_selection_case
    (fun (servers, source, wanted) ->
      let db = C.Status_db.create () in
      Array.iteri
        (fun i s ->
          C.Status_db.update_sys db
            (sys_record
               ~host:(Printf.sprintf "s%d" (i + 1))
               ~ip:(Printf.sprintf "10.0.0.%d" (i + 1))
               ~cpu_free:s.ds_cpu_free ~load1:s.ds_load1
               ~mem_free:s.ds_mem_free ~bogomips:s.ds_bogomips ~at:1.0 ()))
        servers;
      let net_entries =
        List.concat
          (List.mapi
             (fun i s ->
               match s.ds_net with
               | Some (delay, bandwidth) ->
                 [
                   {
                     P.Records.peer = Printf.sprintf "s%d" (i + 1);
                     delay;
                     bandwidth;
                     measured_at = 1.0;
                   };
                 ]
               | None -> [])
             (Array.to_list servers))
      in
      if net_entries <> [] then
        C.Status_db.update_net db
          { P.Records.monitor = "mon"; entries = net_entries };
      let sec_entries =
        List.concat
          (List.mapi
             (fun i s ->
               match s.ds_sec with
               | Some level ->
                 [ { P.Records.host = Printf.sprintf "s%d" (i + 1); level } ]
               | None -> [])
             (Array.to_list servers))
      in
      if sec_entries <> [] then
        C.Status_db.replace_sec db { P.Records.entries = sec_entries };
      let net_for host = C.Status_db.net_entry_for db ~target:host in
      let reference =
        let views =
          List.map
            (fun (r : P.Records.sys_record) ->
              let host = r.P.Records.report.P.Report.host in
              {
                O.Selection.record = r;
                net = net_for host;
                security_level = security_level db ~host;
              })
            (C.Status_db.sys_records db)
        in
        O.Selection.select ~requirement:(compile source) ~servers:views
          ~wanted
      in
      match Smart_lang.Requirement.compile_fast source with
      | Error _ -> false
      | Ok fast ->
        let view = C.Status_db.columns db ~net_for in
        let got =
          C.Selection.select_columns (C.Selection.scratch ()) ~fast ~view
            ~wanted
        in
        (* per host: the eligibility check over the full snapshot, over
           the host's own one-row view, and the reference verdict *)
        let host_agrees row (v : O.Selection.verdict) =
          let expected = v.O.Selection.qualified && not v.O.Selection.denied in
          let one_row =
            match C.Status_db.row_view db ~net_for ~host:v.O.Selection.host with
            | Some rv -> C.Selection.qualifies ~fast ~view:rv ~row:0
            | None -> not expected
          in
          C.Selection.qualifies ~fast ~view ~row = expected
          && one_row = expected
        in
        List.equal String.equal reference.O.Selection.selected got
        && List.for_all Fun.id
             (List.mapi host_agrees reference.O.Selection.verdicts))

(* A second transmitter's snapshot must not clobber the first's servers
   on the mirror (per-transmitter ownership). *)
let test_receiver_multi_transmitter_ownership () =
  let db = C.Status_db.create () in
  let rx = C.Receiver.create ~order:P.Endian.Little db in
  let frame_for hosts =
    P.Frame.encode P.Endian.Little
      {
        P.Frame.payload_type = P.Frame.Sys_db;
        data =
          String.concat ""
            (List.map
               (fun (h, ip) ->
                 P.Records.encode_sys P.Endian.Little
                   (sys_record ~host:h ~ip ~at:1.0 ()))
               hosts);
        trace = Smart_util.Tracelog.root;
      }
  in
  let ok = function Ok () -> () | Error e -> Alcotest.failf "stream: %s" e in
  ok (C.Receiver.handle_stream rx ~from:"monA" (frame_for [ ("a1", "1.1.1.1"); ("a2", "1.1.1.2") ]));
  ok (C.Receiver.handle_stream rx ~from:"monB" (frame_for [ ("b1", "2.1.1.1") ]));
  Alcotest.(check int) "three mirrored" 3 (C.Status_db.sys_count db);
  (* monA's next snapshot lost a2: only a2 disappears *)
  ok (C.Receiver.handle_stream rx ~from:"monA" (frame_for [ ("a1", "1.1.1.1") ]));
  Alcotest.(check int) "a2 dropped, b1 kept" 2 (C.Status_db.sys_count db);
  Alcotest.(check bool) "b1 still present" true
    (C.Status_db.find_sys db ~host:"b1" <> None);
  Alcotest.(check bool) "a2 gone" true
    (C.Status_db.find_sys db ~host:"a2" = None)

(* One monitor's push as a realnet transmitter ships it, on a connection
   of its own: the snapshot of [hosts], then the Net_db record naming
   the monitor (written even when it holds no entries). *)
let monitor_push ?(cut = false) ~monitor hosts =
  let order = P.Endian.Little in
  let frame payload_type data =
    P.Frame.encode order
      { P.Frame.payload_type; data; trace = Smart_util.Tracelog.root }
  in
  frame P.Frame.Sys_db
    (String.concat ""
       (List.map
          (fun h ->
            P.Records.encode_sys order
              (sys_record ~host:h ~ip:("10.0.0." ^ h) ~at:1.0 ()))
          hosts))
  ^
  if cut then ""
  else
    frame P.Frame.Net_db
      (P.Records.encode_net order { P.Records.monitor; entries = [] })

(* Each push on its own connection, forgotten at its EOF: ownership is
   the monitor's, so the second push still drops the host the first
   named and it does not.  A push cut before its Net_db frame names no
   monitor: the host only it named leaves at its EOF. *)
let test_receiver_ownership_outlives_connection () =
  let db = C.Status_db.create () in
  let rx = C.Receiver.create ~order:P.Endian.Little db in
  let push ?cut ~from hosts =
    (match
       C.Receiver.handle_stream rx ~from (monitor_push ?cut ~monitor:"mon" hosts)
     with
    | Ok () -> ()
    | Error e -> Alcotest.failf "push: %s" e);
    C.Receiver.forget_source rx ~from
  in
  let mirrored host = Option.is_some (C.Status_db.find_sys db ~host) in
  push ~from:"127.0.0.1:40001" [ "a"; "b" ];
  Alcotest.(check int) "both mirrored" 2 (C.Status_db.sys_count db);
  push ~from:"127.0.0.1:40002" [ "a" ];
  Alcotest.(check bool) "b gone" false (mirrored "b");
  Alcotest.(check bool) "a kept" true (mirrored "a");
  push ~cut:true ~from:"127.0.0.1:40003" [ "a"; "c" ];
  Alcotest.(check bool) "c, named by a cut push only, gone" false
    (mirrored "c");
  Alcotest.(check bool) "a, still the monitor's, kept" true (mirrored "a")

(* 1,000 one-shot pushes from one monitor leave one ownership entry:
   every push that omits b drops it, and no connection's tag outlives
   its EOF in any receiver table (a weak pointer to each tag is cleared
   by a full major collection). *)
let test_receiver_one_shot_pushes () =
  let db = C.Status_db.create () in
  let m = Smart_util.Metrics.create () in
  let rx = C.Receiver.create ~metrics:m ~order:P.Endian.Little db in
  let n = 1000 in
  let tags = Weak.create n in
  for i = 0 to n - 1 do
    let from = Printf.sprintf "127.0.0.1:%d" (40000 + i) in
    Weak.set tags i (Some from);
    let hosts = if i mod 2 = 0 then [ "a"; "b" ] else [ "a" ] in
    (match C.Receiver.handle_stream rx ~from (monitor_push ~monitor:"mon" hosts) with
    | Ok () -> ()
    | Error e -> Alcotest.failf "push %d: %s" i e);
    C.Receiver.forget_source rx ~from;
    Alcotest.(check int)
      (Printf.sprintf "push %d mirrors its snapshot" i)
      (List.length hosts) (C.Status_db.sys_count db)
  done;
  Alcotest.(check (float 0.0)) "no stream state left" 0.0
    (gauge_value m "receiver.transmitters");
  Gc.full_major ();
  let kept = ref 0 in
  for i = 0 to n - 1 do
    if Weak.check tags i then incr kept
  done;
  (* the receiver is live across the collection *)
  ignore (Sys.opaque_identity rx);
  Alcotest.(check int) "no connection tag retained" 0 !kept

(* A Sys_db payload that ends inside a record is rejected whole: it
   counts as a decode error and writes nothing, so the host its last,
   partial record named stays mirrored.  An empty payload is valid: the
   source owns no hosts any more. *)
let test_receiver_rejects_partial_sys () =
  let order = P.Endian.Little in
  let db = C.Status_db.create () in
  let m = Smart_util.Metrics.create () in
  let rx = C.Receiver.create ~metrics:m ~order db in
  let snapshot ~cpu_free hosts =
    String.concat ""
      (List.map
         (fun h ->
           P.Records.encode_sys order
             (sys_record ~host:h ~ip:("10.0.0." ^ h) ~cpu_free ~at:1.0 ()))
         hosts)
  in
  let feed data =
    C.Receiver.handle_stream rx ~from:"mon"
      (P.Frame.encode order
         {
           P.Frame.payload_type = P.Frame.Sys_db;
           data;
           trace = Smart_util.Tracelog.root;
         })
  in
  let ok = function Ok () -> () | Error e -> Alcotest.failf "stream: %s" e in
  ok (feed (snapshot ~cpu_free:0.9 [ "a"; "b"; "c" ]));
  let full = snapshot ~cpu_free:0.1 [ "a"; "b"; "c" ] in
  (match feed (String.sub full 0 (String.length full - 100)) with
  | Ok () -> Alcotest.fail "a truncated snapshot was accepted"
  | Error _ -> ());
  Alcotest.(check int) "one decode error" 1
    (counter_value m "receiver.decode_errors_total");
  Alcotest.(check int) "one frame applied" 1
    (counter_value m "receiver.frames_total");
  Alcotest.(check (list string)) "c still mirrored" [ "a"; "b"; "c" ]
    (List.map
       (fun r -> r.P.Records.report.P.Report.host)
       (C.Status_db.sys_records db));
  (match C.Status_db.find_sys db ~host:"a" with
  | Some r ->
    Alcotest.(check (float 1e-9)) "nothing written" 0.9
      r.P.Records.report.P.Report.cpu_free
  | None -> Alcotest.fail "a missing");
  ok (feed "");
  Alcotest.(check int) "an empty snapshot owns no hosts" 0
    (C.Status_db.sys_count db)

(* Pushes through the receiver against direct writes.  Up to three
   sources push Sys, Net and Sec frames; security tables come from a
   small pool, so a push often repeats the table the mirror already
   holds, and direct [replace_sec] writes on the mirror land between
   pushes.  A twin database is fed the same records by direct writes,
   under the receiver's ownership rule (a host missing from its
   source's new snapshot leaves).  After every step the mirror holds
   the twin's tables, its columnar snapshot equals a rebuild of the
   twin's, and the update hook has fired once per frame, skipped or
   not. *)
type rx_step =
  | Rx_push of int * (int * int) list * int
      (* source, (host, value) snapshot, security table *)
  | Rx_direct_sec of int  (* security table written to the mirror *)

(* Tables 0 and 1 differ in bytes, not in content (a duplicate host,
   last entry winning); 2 changes one level, drops one host and adds
   one; 3 is empty. *)
let rx_sec_pool =
  [|
    [ (0, 1); (1, 2); (2, 3) ];
    [ (0, 1); (1, 4); (2, 3); (1, 2) ];
    [ (0, 1); (1, 3); (4, 0) ];
    [];
  |]

let rx_sec_table i =
  {
    P.Records.entries =
      List.map
        (fun (h, level) -> { P.Records.host = db_host h; level })
        rx_sec_pool.(i);
  }

let rx_source i = Printf.sprintf "src%d" i

let pp_rx_step = function
  | Rx_push (src, snapshot, sec) ->
    Printf.sprintf "push %s [%s] sec%d" (rx_source src)
      (String.concat ","
         (List.map (fun (h, x) -> Printf.sprintf "h%d/%d" h x) snapshot))
      sec
  | Rx_direct_sec sec -> Printf.sprintf "direct sec%d" sec

let arbitrary_rx_steps =
  let sec = QCheck.Gen.int_range 0 (Array.length rx_sec_pool - 1) in
  let step =
    QCheck.Gen.(
      frequency
        [
          ( 3,
            map3
              (fun src snapshot sec -> Rx_push (src, snapshot, sec))
              (int_range 0 2)
              (list_size (int_range 0 4)
                 (pair (int_range 0 (db_hosts - 1)) (int_range 0 3)))
              sec );
          (1, map (fun sec -> Rx_direct_sec sec) sec);
        ])
  in
  QCheck.make
    ~print:(fun steps -> String.concat "\n" (List.map pp_rx_step steps))
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_range 1 15) step)

let arbitrary_order =
  QCheck.make
    ~print:(function P.Endian.Little -> "little-endian" | P.Endian.Big -> "big-endian")
    (QCheck.Gen.oneofl [ P.Endian.Little; P.Endian.Big ])

(* The byte order is drawn per case: the mirror holds pushed system
   records as their wire bytes, so its reads must use the receiver's
   order. *)
let prop_receiver_matches_direct_writes =
  QCheck.Test.make ~name:"receiver pushes = direct writes" ~count:300
    (QCheck.pair arbitrary_order arbitrary_rx_steps) (fun (order, steps) ->
      let mirror = C.Status_db.create () in
      let twin = C.Status_db.create () in
      let m = Smart_util.Metrics.create () in
      let rx = C.Receiver.create ~metrics:m ~order mirror in
      let hooks = ref 0 and frames = ref 0 in
      C.Receiver.set_update_hook rx (Some (fun _ -> incr hooks));
      let owned = Hashtbl.create 4 in
      let clock = ref 0 in
      let net_for db target = C.Status_db.net_entry_for db ~target in
      let step = function
        | Rx_push (src, snapshot, sec) ->
          incr clock;
          let at = float_of_int !clock in
          let records =
            List.map
              (fun (h, x) ->
                sys_record ~host:(db_host h)
                  ~ip:(Printf.sprintf "10.%d.0.%d" x h)
                  ~cpu_free:(0.25 *. float_of_int x) ~at ())
              snapshot
          in
          let net =
            {
              P.Records.monitor = rx_source src;
              entries =
                List.map
                  (fun (h, x) ->
                    net_entry
                      ~bandwidth:(1e5 *. float_of_int (x + 1))
                      ~measured_at:at (db_host h))
                  snapshot;
            }
          in
          let frame payload_type data =
            P.Frame.encode order
              { P.Frame.payload_type; data; trace = Smart_util.Tracelog.root }
          in
          let push =
            frame P.Frame.Sys_db
              (String.concat "" (List.map (P.Records.encode_sys order) records))
            ^ frame P.Frame.Net_db (P.Records.encode_net order net)
            ^ frame P.Frame.Sec_db (P.Records.encode_sec order (rx_sec_table sec))
          in
          (match C.Receiver.handle_stream rx ~from:(rx_source src) push with
          | Ok () -> ()
          | Error e -> Alcotest.failf "push: %s" e);
          frames := !frames + 3;
          let hosts =
            List.map (fun r -> r.P.Records.report.P.Report.host) records
          in
          C.Status_db.update_sys_many twin records;
          List.iter
            (fun host ->
              if not (List.mem host hosts) then
                C.Status_db.remove_sys twin ~host)
            (Option.value ~default:[] (Hashtbl.find_opt owned src));
          Hashtbl.replace owned src hosts;
          C.Status_db.update_net twin net;
          C.Status_db.replace_sec twin (rx_sec_table sec)
        | Rx_direct_sec sec ->
          C.Status_db.replace_sec mirror (rx_sec_table sec);
          C.Status_db.replace_sec twin (rx_sec_table sec)
      in
      List.for_all
        (fun s ->
          step s;
          let view = C.Status_db.columns mirror ~net_for:(net_for mirror) in
          let monitors = List.init 3 rx_source in
          let rebuilt = fresh_copy twin ~monitors in
          C.Status_db.sys_records mirror = C.Status_db.sys_records twin
          && net_records mirror ~monitors = net_records twin ~monitors
          && C.Status_db.sec_record mirror = C.Status_db.sec_record twin
          && same_view view
               (C.Status_db.columns rebuilt ~net_for:(net_for rebuilt))
          && !hooks = !frames
          && counter_value m "receiver.frames_total" = !frames)
        steps)

(* Words allocated so far: minor plus words allocated directly on the
   major heap ([Gc.counters]' major words minus promotions), counted as
   bench/bench_wizard.ml counts them.  Blocks too large for the minor
   heap, such as a copy of a whole frame payload, only show up in the
   direct-major part. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* Words per server of one steady-state push of [n] servers (Sys, Net
   and Sec frames into a mirror that already holds them). *)
let push_words_per_server n =
  let order = P.Endian.Little in
  let host i = Printf.sprintf "s%04d" i in
  let source = C.Status_db.create () in
  C.Status_db.update_sys_many source
    (List.init n (fun i ->
         sys_record ~host:(host i)
           ~ip:(Printf.sprintf "10.%d.%d.%d" (i / 65536) (i / 256 mod 256) (i mod 256))
           ~at:1.0 ()));
  C.Status_db.update_net source
    { P.Records.monitor = "mon"; entries = List.init n (fun i -> net_entry (host i)) };
  C.Status_db.replace_sec source
    {
      P.Records.entries =
        List.init n (fun i -> { P.Records.host = host i; level = i mod 5 });
    };
  let tx =
    C.Transmitter.create ~monitor_name:"mon"
      {
        C.Transmitter.mode = C.Transmitter.Centralized;
        order;
        receiver = { C.Output.host = "wiz"; port = P.Ports.receiver };
      }
      source
  in
  let push =
    String.concat ""
      (List.map (P.Frame.encode order) (C.Transmitter.snapshot_frames tx))
  in
  let rx = C.Receiver.create ~order (C.Status_db.create ()) in
  let feed () =
    match C.Receiver.handle_stream rx ~from:"mon" push with
    | Ok () -> ()
    | Error e -> Alcotest.failf "push of %d servers: %s" n e
  in
  feed ();
  let before = allocated_words () in
  feed ();
  (allocated_words () -. before) /. float_of_int n

(* A push costs O(servers): per-server words at 4,000 servers stay
   within 1.5x of those at 250.  Decoding that copied the frame payload
   once per record would grow them with the push. *)
let test_receiver_push_linear () =
  let small = push_words_per_server 250 in
  let large = push_words_per_server 4000 in
  if large > 1.5 *. small || small > 1.5 *. large then
    Alcotest.failf "words per server: %.1f at 250 servers, %.1f at 4,000" small
      large

(* A pushed system record is never decoded on the way into the
   snapshot: its column values are read from the frame bytes.  Each
   must equal the reference binding ([O.Report_binding.variable]) on
   the decoded record bit for bit, in either byte order, the derived
   [host_disk_allreq] included.  Values are arbitrary bit patterns; NaN
   is drawn as the one [Float.nan], since which payload a sum of two
   NaNs keeps is the hardware's choice. *)
let prop_pushed_columns_bit_exact =
  let value =
    QCheck.Gen.map
      (fun bits ->
        let v = Int64.float_of_bits bits in
        if Float.is_nan v then Float.nan else v)
      QCheck.Gen.ui64
  in
  let gen =
    QCheck.Gen.(
      pair
        (oneofl [ P.Endian.Little; P.Endian.Big ])
        (list_size (int_range 1 6) (array_size (return P.Report.field_count) value)))
  in
  QCheck.Test.make ~name:"pushed columns = report binding, bit for bit"
    ~count:200
    (QCheck.make
       ~print:(fun (order, rows) ->
         Printf.sprintf "%s: %s"
           (match order with P.Endian.Little -> "LE" | P.Endian.Big -> "BE")
           (String.concat "; "
              (List.map
                 (fun a ->
                   String.concat ","
                     (Array.to_list (Array.map (Printf.sprintf "%h") a)))
                 rows)))
       gen)
    (fun (order, rows) ->
      let report i a =
        {
          (report ~host:(Printf.sprintf "h%d" i) ~ip:(Printf.sprintf "10.0.0.%d" i) ())
          with
          P.Report.load1 = a.(0); load5 = a.(1); load15 = a.(2);
          cpu_user = a.(3); cpu_nice = a.(4); cpu_system = a.(5);
          cpu_free = a.(6); bogomips = a.(7);
          mem_total = a.(8); mem_used = a.(9); mem_free = a.(10);
          mem_buffers = a.(11); mem_cached = a.(12);
          disk_rreq = a.(13); disk_rblocks = a.(14); disk_wreq = a.(15);
          disk_wblocks = a.(16);
          net_rbytes = a.(17); net_rpackets = a.(18); net_tbytes = a.(19);
          net_tpackets = a.(20);
        }
      in
      let payload =
        String.concat ""
          (List.mapi
             (fun i a ->
               P.Records.encode_sys order { P.Records.report = report i a; updated_at = 1.0 })
             rows)
      in
      let mirror = C.Status_db.create () in
      let rx = C.Receiver.create ~order mirror in
      let frame =
        P.Frame.encode order
          { P.Frame.payload_type = P.Frame.Sys_db; data = payload;
            trace = Smart_util.Tracelog.root }
      in
      (match C.Receiver.handle_stream rx ~from:"src" frame with
      | Ok () -> ()
      | Error e -> Alcotest.failf "push: %s" e);
      let view = C.Status_db.columns mirror ~net_for:(fun _ -> None) in
      let module B = Smart_lang.Bytecode in
      let same_bits a b =
        Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
      in
      List.for_all
        (fun i ->
          let expected =
            (P.Records.decode_wire
               (P.Records.sys_wire order payload
                  ~pos:(i * P.Records.sys_record_size)))
              .P.Records.report
          in
          (* hosts h0..h5 sort in push order, so record i is row i *)
          let row = i in
          let decoded_on_demand =
            match C.Status_db.find_sys mirror ~host:expected.P.Report.host with
            | Some r ->
              String.equal r.P.Records.report.P.Report.ip expected.P.Report.ip
              && List.for_all
                   (fun k ->
                     same_bits
                       (P.Report.field r.P.Records.report k)
                       (P.Report.field expected k))
                   (List.init P.Report.field_count Fun.id)
            | None -> false
          in
          String.equal view.C.Status_db.hosts.(row) expected.P.Report.host
          && String.equal view.C.Status_db.ips.(row) expected.P.Report.ip
          && decoded_on_demand
          && Array.for_all
               (fun column ->
                 let name = B.sys_fields.(column) in
                 match O.Report_binding.variable expected name with
                 | None -> false
                 | Some v ->
                   same_bits v
                     (Bigarray.Array2.get view.C.Status_db.cols.B.sys column row))
               (Array.init B.sys_field_count Fun.id))
        (List.init (List.length rows) Fun.id))

(* A deterministic plane of [n] servers s0000.. with system, network
   and security data for every one; about half pass [host_cpu_free >
   0.35], so the first ten eligible rows come early in the scan. *)
let scaling_plane n =
  let db = C.Status_db.create () in
  let host i = Printf.sprintf "s%04d" i in
  for i = 0 to n - 1 do
    C.Status_db.update_sys db
      (sys_record ~host:(host i)
         ~ip:(Printf.sprintf "10.1.%d.%d" (i / 250) (i mod 250))
         ~cpu_free:(0.1 +. (0.1 *. float_of_int (i * 7 mod 9)))
         ~mem_free:(100.0 +. float_of_int (i * 37 mod 400))
         ~at:1.0 ())
  done;
  C.Status_db.update_net db
    {
      P.Records.monitor = "mon";
      entries =
        List.init n (fun i ->
            {
              P.Records.peer = host i;
              delay = 0.001 +. (0.0001 *. float_of_int (i mod 7));
              bandwidth = 10e6 +. (1e5 *. float_of_int (i mod 13));
              measured_at = 1.0;
            });
    };
  C.Status_db.replace_sec db
    {
      P.Records.entries =
        List.init n (fun i -> { P.Records.host = host i; level = 1 + (i mod 5) });
    };
  db

(* One requirement per scan path: the sweep plan without and with
   order_by, the plan with constant host lists, and the interpreter (a
   computed order key and a host named through a bound temp). *)
let scaling_shapes =
  [
    ( "sweep",
      "host_cpu_free > 0.35\nhost_memory_free > 50\nmonitor_network_bw > 1\n" );
    ( "sweep + order_by",
      "host_cpu_free > 0.35\nhost_security_level >= 1\n\
       order_by = host_memory_free\n" );
    ( "host lists",
      "user_preferred_host1 = s0042\nhost_cpu_free > 0.35\n\
       user_denied_host1 = 10.1.0.3\nuser_preferred_host2 = s0007\n" );
    ( "interpreter",
      "host_cpu_free > 0.35\nt = host_memory_free + 4 * host_cpu_free\n\
       order_by = t\nuser_preferred_host1 = t\n" );
  ]

(* Minor plus direct-major words per [select_columns] call, wanted 10,
   after one call that sizes the scratch. *)
let select_words db source =
  let view =
    C.Status_db.columns db ~net_for:(fun host ->
        C.Status_db.net_entry_for db ~target:host)
  in
  let fast =
    match Smart_lang.Requirement.compile_fast source with
    | Ok fast -> fast
    | Error _ -> Alcotest.failf "does not compile: %S" source
  in
  let scratch = C.Selection.scratch () in
  let select () = C.Selection.select_columns scratch ~fast ~view ~wanted:10 in
  if List.length (select ()) <> 10 then
    Alcotest.failf "fewer than 10 servers for %S" source;
  let calls = 50 in
  let before = allocated_words () in
  for _ = 1 to calls do
    ignore (Sys.opaque_identity (select ()))
  done;
  (allocated_words () -. before) /. float_of_int calls

(* A selection's allocation does not grow with the snapshot: on every
   scan path, words per call at 2,000 servers stay within 2x of those at
   60.  Boxing a float per compare or a heap entry per eligible row
   would grow them with the server count. *)
let test_selection_words_flat_in_size () =
  let small = scaling_plane 60 and large = scaling_plane 2000 in
  List.iter
    (fun (shape, source) ->
      let w60 = select_words small source in
      let w2000 = select_words large source in
      if w2000 > 2.0 *. w60 then
        Alcotest.failf "%s: %.1f words per call at 2,000 servers, %.1f at 60"
          shape w2000 w60)
    scaling_shapes

(* ------------------------------------------------------------------ *)
(* Wizard + Client protocol (no network)                                *)
(* ------------------------------------------------------------------ *)

let fresh_client ?(seed = 4) () =
  C.Client.create ~rng:(Smart_util.Prng.create ~seed) ()

let client_request ?(wanted = 2) ?(option = P.Wizard_msg.Accept_partial)
    requirement =
  C.Client.make_request (fresh_client ()) ~wanted ~option ~requirement

let test_wizard_centralized_reply () =
  let db = C.Status_db.create () in
  C.Status_db.update_sys db (sys_record ~host:"a" ~ip:"1.0.0.1" ~at:0.0 ());
  C.Status_db.update_sys db
    (sys_record ~host:"b" ~ip:"1.0.0.2" ~cpu_free:0.1 ~at:0.0 ());
  let m = Smart_util.Metrics.create () in
  let wizard =
    C.Wizard.create ~metrics:m
      { C.Wizard.mode = C.Wizard.Centralized; groups = None }
      db
  in
  let request = client_request "host_cpu_free > 0.5\n" in
  let from = { C.Output.host = "client"; port = 4567 } in
  (match
     C.Wizard.handle_request wizard ~now:1.0 ~from
       (P.Wizard_msg.encode_request request)
   with
  | [ C.Output.Udp { dst; data } ] ->
    Alcotest.(check string) "reply to requester" "client" dst.C.Output.host;
    Alcotest.(check int) "reply to requester port" 4567 dst.C.Output.port;
    (match C.Client.check_reply (fresh_client ()) request data with
    | Ok servers -> Alcotest.(check (list string)) "servers" [ "a" ] servers
    | Error e -> Alcotest.failf "reply rejected: %a" C.Client.pp_error e)
  | _ -> Alcotest.fail "expected one reply datagram");
  Alcotest.(check int) "handled" 1 (counter_value m "wizard.requests_total")

let test_wizard_bad_requirement () =
  let db = C.Status_db.create () in
  C.Status_db.update_sys db (sys_record ~at:0.0 ());
  let m = Smart_util.Metrics.create () in
  let wizard =
    C.Wizard.create ~metrics:m
      { C.Wizard.mode = C.Wizard.Centralized; groups = None }
      db
  in
  let request = client_request "1 +\n" in
  (match
     C.Wizard.handle_request wizard ~now:1.0
       ~from:{ C.Output.host = "c"; port = 1 }
       (P.Wizard_msg.encode_request request)
   with
  | [ C.Output.Udp { data; _ } ] ->
    (match P.Wizard_msg.decode_reply data with
    | Ok reply ->
      Alcotest.(check (list string)) "empty on compile error" []
        reply.P.Wizard_msg.servers
    | Error e -> Alcotest.failf "reply: %s" e)
  | _ -> Alcotest.fail "expected reply");
  Alcotest.(check int) "compile error counted" 1
    (counter_value m "wizard.compile_errors_total")

let test_wizard_garbage_dropped () =
  let db = C.Status_db.create () in
  let wizard =
    C.Wizard.create { C.Wizard.mode = C.Wizard.Centralized; groups = None } db
  in
  Alcotest.(check int) "garbage dropped silently" 0
    (List.length
       (C.Wizard.handle_request wizard ~now:1.0
          ~from:{ C.Output.host = "c"; port = 1 }
          "xx"))

let test_wizard_distributed_pull_flow () =
  let db = C.Status_db.create () in
  let wizard =
    C.Wizard.create
      {
        C.Wizard.mode =
          C.Wizard.Distributed
            [ { C.Output.host = "mon"; port = P.Ports.transmitter } ];
        groups = None;
      }
      db
  in
  let request = client_request "100 > 0\n" in
  let from = { C.Output.host = "client"; port = 9 } in
  (* request triggers pulls, no immediate reply *)
  (match
     C.Wizard.handle_request wizard ~now:1.0 ~from
       (P.Wizard_msg.encode_request request)
   with
  | [ C.Output.Udp { dst; data } ] ->
    Alcotest.(check string) "pull to transmitter" "mon" dst.C.Output.host;
    Alcotest.(check string) "magic" C.Transmitter.pull_request_magic data
  | _ -> Alcotest.fail "expected one pull");
  Alcotest.(check int) "pending" 1 (C.Wizard.pending_count wizard);
  Alcotest.(check int) "no release yet" 0
    (List.length (C.Wizard.tick wizard ~now:1.1));
  (* fresh data lands: three frames *)
  C.Status_db.update_sys db (sys_record ~host:"a" ~ip:"1.0.0.1" ~at:1.2 ());
  C.Wizard.note_update wizard;
  C.Wizard.note_update wizard;
  C.Wizard.note_update wizard;
  (match C.Wizard.tick wizard ~now:1.3 with
  | [ C.Output.Udp { data; _ } ] ->
    (match C.Client.check_reply (fresh_client ()) request data with
    | Ok servers -> Alcotest.(check (list string)) "served after pull" [ "a" ] servers
    | Error e -> Alcotest.failf "reply: %a" C.Client.pp_error e)
  | _ -> Alcotest.fail "expected deferred reply");
  Alcotest.(check int) "pending drained" 0 (C.Wizard.pending_count wizard)

(* ------------------------------------------------------------------ *)
(* Roles                                                                *)
(* ------------------------------------------------------------------ *)

let role_env () =
  {
    C.Role.metrics = Smart_util.Metrics.create ();
    trace = Smart_util.Tracelog.create ~capacity:64 ~clock:(fun () -> 1.0) ();
    clock = (fun () -> 1.0);
  }

let wizard_role ?(mode = C.Wizard.Centralized) env =
  C.Role.wizard env ~mode ~staleness_threshold:infinity

(* The one scrape function both installers run on a role's scrape port:
   SMART-METRICS gets the registry, SMART-TRACE the span ring, and any
   other datagram [None] without allocating. *)
let test_role_scrape () =
  let env = role_env () in
  let role = wizard_role env in
  let request = P.Wizard_msg.encode_request (client_request "100 > 0\n") in
  ignore
    (C.Wizard.handle_request role.C.Role.parts.C.Role.wizard ~now:1.0
       ~from:{ C.Output.host = "client"; port = 9 }
       request);
  Alcotest.(check int) "the scrape port is the request port" P.Ports.wizard
    role.C.Role.scrape_port;
  List.iter
    (fun (what, scrape, dump) ->
      Alcotest.(check (option string)) what (Some dump) (C.Role.scrape role scrape))
    [
      ( "metrics as text",
        P.Metrics_msg.encode_request P.Metrics_msg.Text,
        P.Metrics_msg.encode_reply P.Metrics_msg.Text env.C.Role.metrics );
      ( "metrics as json",
        P.Metrics_msg.encode_request P.Metrics_msg.Json,
        P.Metrics_msg.encode_reply P.Metrics_msg.Json env.C.Role.metrics );
      ( "trace as text",
        P.Trace_msg.encode_request P.Trace_msg.Text,
        P.Trace_msg.encode_reply P.Trace_msg.Text env.C.Role.trace );
    ];
  Alcotest.(check bool) "the ring holds the request's span" true
    (List.exists
       (fun line ->
         List.mem "wizard.request" (String.split_on_char ' ' line))
       (String.split_on_char '\n' (Smart_util.Tracelog.to_text env.C.Role.trace)));
  Alcotest.(check (option string)) "a request is not a scrape" None
    (C.Role.scrape role request);
  let calls = 10_000 in
  let before = allocated_words () in
  for _ = 1 to calls do
    ignore (Sys.opaque_identity (C.Role.scrape role request))
  done;
  let words = allocated_words () -. before in
  if words >= float_of_int calls then
    Alcotest.failf "%d non-scrape datagrams allocated %.0f words" calls words

(* The wizard's tick runs only while a request is parked: never for a
   centralized wizard, and in distributed mode from the request that
   pulls until the one that releases it. *)
let test_role_wizard_tick_armed () =
  let tick role =
    match role.C.Role.timers with
    | [ tick ] -> tick
    | timers -> Alcotest.failf "%d wizard timers" (List.length timers)
  in
  let central = wizard_role (role_env ()) in
  Alcotest.(check bool) "centralized: unarmed" false ((tick central).armed ());
  let role =
    wizard_role (role_env ())
      ~mode:
        (C.Wizard.Distributed
           [ { C.Output.host = "mon"; port = P.Ports.transmitter } ])
  in
  let timer = tick role in
  Alcotest.(check (list string)) "the transmitters are its peers" [ "mon" ]
    role.C.Role.peers;
  Alcotest.(check bool) "nothing parked: unarmed" false (timer.armed ());
  ignore
    (C.Wizard.handle_request role.C.Role.parts.C.Role.wizard ~now:1.0
       ~from:{ C.Output.host = "client"; port = 9 }
       (P.Wizard_msg.encode_request (client_request "100 > 0\n")));
  Alcotest.(check bool) "a parked request arms it" true (timer.armed ());
  Alcotest.(check int) "the deadline releases the reply" 1
    (List.length (timer.fire ~now:3.5));
  Alcotest.(check bool) "released: unarmed again" false (timer.armed ())

let test_wizard_distributed_deadline () =
  let db = C.Status_db.create () in
  C.Status_db.update_sys db (sys_record ~host:"stale" ~ip:"1.0.0.1" ~at:0.0 ());
  let wizard =
    C.Wizard.create
      {
        C.Wizard.mode =
          C.Wizard.Distributed
            [ { C.Output.host = "mon"; port = P.Ports.transmitter } ];
        groups = None;
      }
      db
  in
  let request = client_request "100 > 0\n" in
  ignore
    (C.Wizard.handle_request wizard ~now:1.0
       ~from:{ C.Output.host = "c"; port = 9 }
       (P.Wizard_msg.encode_request request));
  (* no transmitter answers; the deadline releases the request with
     whatever (stale) data exists *)
  Alcotest.(check int) "released at deadline" 1
    (List.length (C.Wizard.tick wizard ~now:3.5))

(* k identical parked requests released by one tick: the tick runs at
   one generation, so the result cache answers every repeat of the
   first scan. *)
let test_wizard_distributed_repeats_hit_cache () =
  let db = C.Status_db.create () in
  C.Status_db.update_sys db (sys_record ~host:"a" ~ip:"1.0.0.1" ~at:0.0 ());
  C.Status_db.update_sys db
    (sys_record ~host:"b" ~ip:"1.0.0.2" ~cpu_free:0.1 ~at:0.0 ());
  let wizard =
    C.Wizard.create
      {
        C.Wizard.mode =
          C.Wizard.Distributed
            [ { C.Output.host = "mon"; port = P.Ports.transmitter } ];
        groups = None;
      }
      db
  in
  let k = 5 in
  let request = client_request "host_cpu_free > 0.5\n" in
  for _ = 1 to k do
    ignore
      (C.Wizard.handle_request wizard ~now:1.0
         ~from:{ C.Output.host = "c"; port = 9 }
         (P.Wizard_msg.encode_request request))
  done;
  let replies =
    List.map
      (function
        | C.Output.Udp { data; _ } -> data
        | C.Output.Stream _ -> Alcotest.fail "expected datagram replies")
      (C.Wizard.tick wizard ~now:3.5)
  in
  Alcotest.(check int) "k replies" k (List.length replies);
  (match C.Client.check_reply (fresh_client ()) request (List.hd replies) with
  | Ok servers -> Alcotest.(check (list string)) "servers" [ "a" ] servers
  | Error e -> Alcotest.failf "reply rejected: %a" C.Client.pp_error e);
  List.iter
    (Alcotest.(check string) "identical replies" (List.hd replies))
    replies;
  Alcotest.(check (pair int int)) "one compile miss" (0, 1)
    (C.Wizard.compile_cache_stats wizard);
  Alcotest.(check (pair int int)) "one result miss, k - 1 hits" (k - 1, 1)
    (C.Wizard.result_cache_stats wizard)

let ask wizard ~wanted requirement =
  match
    C.Wizard.handle_request wizard ~now:1.0
      ~from:{ C.Output.host = "c"; port = 1 }
      (P.Wizard_msg.encode_request (client_request ~wanted requirement))
  with
  | [ C.Output.Udp { data; _ } ] ->
    (match P.Wizard_msg.decode_reply data with
    | Ok reply -> reply.P.Wizard_msg.servers
    | Error e -> Alcotest.failf "reply: %s" e)
  | _ -> Alcotest.fail "expected one reply"

(* The row-selective refresh on a receiver-fed plane of 4 groups x 16
   servers.  Group g's monitor gm<g> pushes its servers' records, its
   network record and the security table every group ships.  Its
   network record measures its own servers in a flat deployment and
   other groups' monitors in a grouped one, where gm0 is the wizard's
   local monitor and names groups 1 and 2. *)
let rows_per_group = 16
let rows_host g j = Printf.sprintf "g%d-%02d" g j
let rows_monitor g = Printf.sprintf "gm%d" g

let rows_frame payload_type data =
  P.Frame.encode P.Endian.Little
    { P.Frame.payload_type; data; trace = Smart_util.Tracelog.root }

let rows_sys g ~variant =
  rows_frame P.Frame.Sys_db
    (String.concat ""
       (List.init rows_per_group (fun j ->
            P.Records.encode_sys P.Endian.Little
              (sys_record ~host:(rows_host g j)
                 ~ip:(Printf.sprintf "10.%d.0.%d" g j)
                 ~cpu_free:(0.1 *. float_of_int (variant + 1))
                 ~at:(float_of_int variant) ()))))

let rows_net g ~grouped ~variant =
  let peers =
    if not grouped then List.init rows_per_group (rows_host g)
    else if g = 0 then [ rows_monitor 1; rows_monitor 2 ]
    else List.map rows_monitor (List.filter (fun h -> h <> g) [ 0; 1; 2; 3 ])
  in
  rows_frame P.Frame.Net_db
    (P.Records.encode_net P.Endian.Little
       {
         P.Records.monitor = rows_monitor g;
         entries =
           List.map
             (net_entry
                ~bandwidth:(1e6 *. float_of_int (variant + 1))
                ~measured_at:(float_of_int variant))
             peers;
       })

let rows_sec =
  rows_frame P.Frame.Sec_db
    (P.Records.encode_sec P.Endian.Little
       {
         P.Records.entries =
           List.concat
             (List.init 4 (fun g ->
                  List.init rows_per_group (fun j ->
                      { P.Records.host = rows_host g j; level = 1 + (j mod 3) })));
       })

let rows_groups =
  {
    C.Wizard.local_monitor = rows_monitor 0;
    group_of =
      (fun host ->
        if String.length host > 1 && host.[0] = 'g' then
          Some (rows_monitor (Char.code host.[1] - Char.code '0'))
        else None);
  }

(* Loads every group's push and reads the snapshot once; returns the
   mirror, a push function, the rows the next read rewrites
   ([read_first] reads the mirror before the wizard does), and a reader
   of the wizard's registry. *)
let rows_plane ~grouped =
  let m = Smart_util.Metrics.create () in
  let config groups = { C.Wizard.mode = C.Wizard.Centralized; groups } in
  let groups = if grouped then Some rows_groups else None in
  let mirror = C.Status_db.create () in
  let rx = C.Receiver.create ~order:P.Endian.Little mirror in
  let wizard = C.Wizard.create ~metrics:m (config groups) mirror in
  let push g frames =
    match C.Receiver.handle_stream rx ~from:(rows_monitor g) (String.concat "" frames) with
    | Ok () -> ()
    | Error e -> Alcotest.failf "push from %s: %s" (rows_monitor g) e
  in
  for g = 0 to 3 do
    push g [ rows_sys g ~variant:0; rows_net g ~grouped ~variant:0; rows_sec ]
  done;
  ignore (ask wizard ~wanted:1 "100 > 0
");
  let rewritten ?(read_first = ignore) () =
    let before = counter_value m "wizard.snapshot_rows_rewritten_total" in
    read_first mirror;
    ignore (ask wizard ~wanted:1 "100 > 0
");
    let net_for host = C.Wizard.net_entry_for wizard ~host in
    let view = C.Status_db.columns mirror ~net_for in
    let copy = fresh_copy mirror ~monitors:(List.init 4 rows_monitor) in
    let twin = C.Wizard.create (config groups) copy in
    if
      not
        (same_view view
           (C.Status_db.columns copy ~net_for:(fun host ->
                C.Wizard.net_entry_for twin ~host)))
    then Alcotest.fail "the refreshed snapshot differs from a rebuild";
    Alcotest.(check int) "no rebuild" 1 (counter_value m "wizard.snapshot_rebuilds_total");
    counter_value m "wizard.snapshot_rows_rewritten_total" - before
  in
  (mirror, push, rewritten, counter_value m)

(* One group's push rewrites its own 16 rows: its system rows, which
   are also the rows its network record feeds, while the repeated
   security table rewrites none. *)
let test_rows_group_push () =
  let _, push, rewritten, _ = rows_plane ~grouped:false in
  push 1 [ rows_sys 1 ~variant:1; rows_net 1 ~grouped:false ~variant:1; rows_sec ];
  Alcotest.(check int) "rows rewritten" rows_per_group (rewritten ())

(* A shard's digest uplink summarizes the mirror before the wizard reads
   it: that refresh, and the rows it rewrote, are counted all the same. *)
let test_rows_summary_refresh () =
  let _, push, rewritten, counter = rows_plane ~grouped:false in
  push 1 [ rows_sys 1 ~variant:1; rows_net 1 ~grouped:false ~variant:1; rows_sec ];
  let digest mirror =
    let net_for target = C.Status_db.net_entry_for mirror ~target in
    ignore (C.Status_db.summary mirror ~shard:"shard" ~net_for)
  in
  let refreshes = counter "wizard.snapshot_refreshes_total" in
  Alcotest.(check int) "rows rewritten" rows_per_group
    (rewritten ~read_first:digest ());
  Alcotest.(check int) "the digest's refresh counted" (refreshes + 1)
    (counter "wizard.snapshot_refreshes_total")

(* Grouped: a remote group's monitor measures other monitors, which no
   row reads (remote rows read the local monitor's record), so its push
   rewrites only its 16 system rows. *)
let test_rows_remote_group_push () =
  let _, push, rewritten, _ = rows_plane ~grouped:true in
  push 2 [ rows_sys 2 ~variant:1; rows_net 2 ~grouped:true ~variant:1; rows_sec ];
  Alcotest.(check int) "rows rewritten" rows_per_group (rewritten ())

(* Grouped: the local monitor's network record names groups 1 and 2,
   so re-sending it rewrites their 32 rows, not group 3's or its own. *)
let test_rows_local_net_push () =
  let _, push, rewritten, _ = rows_plane ~grouped:true in
  push 0 [ rows_net 0 ~grouped:true ~variant:1 ];
  Alcotest.(check int) "rows rewritten" (2 * rows_per_group) (rewritten ())

(* Refreshing the rows of a pushed system snapshot reads the values
   and compares the unchanged IPs in place: no word per row. *)
let test_rows_refresh_allocation () =
  let mirror, push, _, counter = rows_plane ~grouped:false in
  push 1 [ rows_sys 1 ~variant:1 ];
  let net_for target = C.Status_db.net_entry_for mirror ~target in
  let counts () =
    List.map counter
      [
        "wizard.snapshot_rebuilds_total"; "wizard.snapshot_refreshes_total";
        "wizard.snapshot_rows_rewritten_total";
      ]
  in
  let counted = counts () in
  let before = allocated_words () in
  ignore (Sys.opaque_identity (C.Status_db.columns mirror ~net_for));
  let words = allocated_words () -. before in
  Alcotest.(check (list int)) "one refresh of the group's rows"
    [ 0; 1; rows_per_group ]
    (List.map2 ( - ) (counts ()) counted);
  if words >= float_of_int rows_per_group then
    Alcotest.failf "refreshing %d rows allocated %.0f words" rows_per_group words

let test_wizard_compile_cache () =
  let db = C.Status_db.create () in
  C.Status_db.update_sys db (sys_record ~host:"a" ~ip:"1.0.0.1" ~at:0.0 ());
  let wizard =
    C.Wizard.create { C.Wizard.mode = C.Wizard.Centralized; groups = None } db
  in
  (* distinct [wanted] values are distinct result-cache keys, so the
     second request exercises the compile cache on its own *)
  Alcotest.(check (list string)) "wanted 1" [ "a" ]
    (ask wizard ~wanted:1 "host_cpu_free > 0.1\n");
  Alcotest.(check (list string)) "wanted 2, same source" [ "a" ]
    (ask wizard ~wanted:2 "host_cpu_free > 0.1\n");
  Alcotest.(check (pair int int)) "compiled once" (1, 1)
    (C.Wizard.compile_cache_stats wizard);
  (* cache keys are whitespace-trimmed: a re-sent requirement with
     padding still hits *)
  ignore (ask wizard ~wanted:3 "  host_cpu_free > 0.1\n  ");
  Alcotest.(check (pair int int)) "trimmed key hits" (2, 1)
    (C.Wizard.compile_cache_stats wizard);
  (* a disabled cache (capacity 0) still answers correctly *)
  let uncached =
    C.Wizard.create ~compile_cache_capacity:0
      { C.Wizard.mode = C.Wizard.Centralized; groups = None }
      db
  in
  ignore (ask uncached ~wanted:1 "host_cpu_free > 0.1\n");
  ignore (ask uncached ~wanted:1 "host_cpu_free > 0.1\n");
  Alcotest.(check (pair int int)) "capacity 0 never hits" (0, 2)
    (C.Wizard.compile_cache_stats uncached)

(* A text that does not lex must not share a cache key with one that
   does.  Form feed is not whitespace to the lexer, but [String.trim]
   strips it, so a trimmed fallback key gave "\012host_cpu_free > 0.1"
   the valid text's key: whichever came first answered for both. *)
let broken_requirement = "\012host_cpu_free > 0.1\n"

let valid_requirement = "host_cpu_free > 0.1\n"

let four_server_wizard m =
  let db = C.Status_db.create () in
  List.iteri
    (fun i host ->
      C.Status_db.update_sys db
        (sys_record ~host ~ip:(Printf.sprintf "1.0.0.%d" (i + 1)) ~at:0.0 ()))
    [ "a"; "b"; "c"; "d" ];
  C.Wizard.create ~metrics:m
    { C.Wizard.mode = C.Wizard.Centralized; groups = None }
    db

let test_wizard_broken_text_first () =
  let m = Smart_util.Metrics.create () in
  let wizard = four_server_wizard m in
  Alcotest.(check (list string)) "broken text: empty" []
    (ask wizard ~wanted:3 broken_requirement);
  Alcotest.(check int) "its compile error counted" 1
    (counter_value m "wizard.compile_errors_total");
  Alcotest.(check int) "valid text after it: three servers" 3
    (List.length (ask wizard ~wanted:3 valid_requirement));
  Alcotest.(check int) "no second compile error" 1
    (counter_value m "wizard.compile_errors_total")

let test_wizard_broken_text_second () =
  let m = Smart_util.Metrics.create () in
  let wizard = four_server_wizard m in
  Alcotest.(check int) "valid text: three servers" 3
    (List.length (ask wizard ~wanted:3 valid_requirement));
  Alcotest.(check (list string)) "broken text after it: empty" []
    (ask wizard ~wanted:3 broken_requirement);
  Alcotest.(check int) "its compile error counted" 1
    (counter_value m "wizard.compile_errors_total")

let test_wizard_result_cache_and_snapshot () =
  let db = C.Status_db.create () in
  C.Status_db.update_sys db (sys_record ~host:"a" ~ip:"1.0.0.1" ~at:0.0 ());
  C.Status_db.update_sys db
    (sys_record ~host:"b" ~ip:"1.0.0.2" ~cpu_free:0.1 ~at:0.0 ());
  let wizard =
    C.Wizard.create { C.Wizard.mode = C.Wizard.Centralized; groups = None } db
  in
  let requirement = "host_cpu_free > 0.5\n" in
  Alcotest.(check (list string)) "first answer" [ "a" ]
    (ask wizard ~wanted:2 requirement);
  ignore (ask wizard ~wanted:2 requirement);
  ignore (ask wizard ~wanted:2 requirement);
  (let hits, _ = C.Wizard.result_cache_stats wizard in
   Alcotest.(check int) "repeats served from the result cache" 2 hits);
  Alcotest.(check int) "one snapshot for the whole burst" 1
    (C.Wizard.snapshot_rebuilds wizard);
  (* a write moves the generation: the memoized result must NOT be
     served, and the snapshot is rebuilt exactly once more *)
  C.Status_db.update_sys db
    (sys_record ~host:"c" ~ip:"1.0.0.3" ~at:0.5 ());
  Alcotest.(check (list string)) "write invalidates the cached result"
    [ "a"; "c" ]
    (ask wizard ~wanted:2 requirement);
  Alcotest.(check int) "rebuilt once after the write" 2
    (C.Wizard.snapshot_rebuilds wizard);
  ignore (ask wizard ~wanted:2 requirement);
  Alcotest.(check int) "then memoized again" 2
    (C.Wizard.snapshot_rebuilds wizard)

(* A host that re-reports under a new IP keeps its snapshot row, and
   the in-place refresh must carry the IP along: user_denied_hostN
   matches by IP through the snapshot. *)
let test_wizard_denies_new_ip () =
  let db = C.Status_db.create () in
  C.Status_db.update_sys db (sys_record ~host:"a" ~ip:"1.0.0.1" ~at:0.0 ());
  C.Status_db.update_sys db (sys_record ~host:"b" ~ip:"1.0.0.2" ~at:0.0 ());
  let wizard =
    C.Wizard.create { C.Wizard.mode = C.Wizard.Centralized; groups = None } db
  in
  Alcotest.(check (list string)) "both qualify" [ "a"; "b" ]
    (ask wizard ~wanted:2 "100 > 0\n");
  C.Status_db.update_sys db (sys_record ~host:"a" ~ip:"9.9.9.9" ~at:1.0 ());
  Alcotest.(check (list string)) "denied by its new IP" [ "b" ]
    (ask wizard ~wanted:2 "user_denied_host1 = 9.9.9.9\n100 > 0\n");
  Alcotest.(check (pair int int)) "one rebuild, then a refresh" (1, 1)
    (C.Wizard.snapshot_rebuilds wizard, C.Wizard.snapshot_refreshes wizard)

(* A transmitter push that changes values but no host refreshes the
   wizard's snapshot instead of rebuilding it, and the answer follows
   the new values of all three tables: after the push [a] is busy, [b]
   has the widest link and [d] lost its clearance. *)
let test_wizard_value_push_refreshes () =
  let source = C.Status_db.create () in
  let load ~after =
    C.Status_db.update_sys_many source
      (List.mapi
         (fun i host ->
           sys_record ~host ~ip:(Printf.sprintf "1.0.0.%d" i)
             ~cpu_free:(if after && String.equal host "a" then 0.1 else 0.9)
             ~at:1.0 ())
         [ "a"; "b"; "c"; "d" ]);
    C.Status_db.update_net source
      {
        P.Records.monitor = "mon";
        entries =
          [
            net_entry ~bandwidth:1e6 "a";
            net_entry ~bandwidth:(if after then 4e6 else 2e6) "b";
            net_entry ~bandwidth:3e6 "c";
            net_entry ~bandwidth:5e5 "d";
          ];
      };
    C.Status_db.replace_sec source
      {
        P.Records.entries =
          List.map
            (fun host ->
              { P.Records.host;
                level = (if after && String.equal host "d" then 1 else 2) })
            [ "a"; "b"; "c"; "d" ];
      }
  in
  let tx =
    C.Transmitter.create ~monitor_name:"mon"
      {
        C.Transmitter.mode = C.Transmitter.Centralized;
        order = P.Endian.Little;
        receiver = { C.Output.host = "wiz"; port = P.Ports.receiver };
      }
      source
  in
  let mirror = C.Status_db.create () in
  let rx = C.Receiver.create ~order:P.Endian.Little mirror in
  let wizard =
    C.Wizard.create { C.Wizard.mode = C.Wizard.Centralized; groups = None }
      mirror
  in
  let push () =
    let data =
      String.concat ""
        (List.map (P.Frame.encode P.Endian.Little)
           (C.Transmitter.snapshot_frames tx))
    in
    match C.Receiver.handle_stream rx ~from:"mon" data with
    | Ok () -> ()
    | Error e -> Alcotest.failf "push: %s" e
  in
  let requirement =
    "host_cpu_free > 0.5\nhost_security_level >= 2\n\
     order_by = monitor_network_bw\n"
  in
  load ~after:false;
  push ();
  Alcotest.(check (list string)) "before" [ "c"; "b"; "a"; "d" ]
    (ask wizard ~wanted:4 requirement);
  let rebuilds = C.Wizard.snapshot_rebuilds wizard in
  let refreshes = C.Wizard.snapshot_refreshes wizard in
  load ~after:true;
  push ();
  Alcotest.(check (list string)) "after" [ "b"; "c" ]
    (ask wizard ~wanted:4 requirement);
  Alcotest.(check int) "no rebuild" rebuilds (C.Wizard.snapshot_rebuilds wizard);
  Alcotest.(check int) "one refresh" (refreshes + 1)
    (C.Wizard.snapshot_refreshes wizard)

(* ------------------------------------------------------------------ *)
(* Client                                                               *)
(* ------------------------------------------------------------------ *)

let test_client_seq_matching () =
  let request = client_request "x > 0\n" in
  let reply seq =
    P.Wizard_msg.encode_reply
      { P.Wizard_msg.seq; servers = [ "a"; "b" ]; degraded = false;
        rejected = false }
  in
  (match C.Client.check_reply (fresh_client ()) request (reply request.P.Wizard_msg.seq) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "own seq rejected: %a" C.Client.pp_error e);
  match C.Client.check_reply (fresh_client ()) request (reply (request.P.Wizard_msg.seq + 1)) with
  | Error (C.Client.Wrong_seq _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "foreign seq accepted"

let test_client_option_semantics () =
  let strict = client_request ~wanted:3 ~option:P.Wizard_msg.Strict "x > 0\n" in
  let partial =
    client_request ~wanted:3 ~option:P.Wizard_msg.Accept_partial "x > 0\n"
  in
  let reply (request : P.Wizard_msg.request) n =
    P.Wizard_msg.encode_reply
      {
        P.Wizard_msg.seq = request.P.Wizard_msg.seq;
        servers = List.init n string_of_int;
        degraded = false;
        rejected = false;
      }
  in
  (match C.Client.check_reply (fresh_client ()) strict (reply strict 2) with
  | Error (C.Client.Not_enough { wanted = 3; got = 2 }) -> ()
  | Ok _ | Error _ -> Alcotest.fail "strict must reject shortfall");
  (match C.Client.check_reply (fresh_client ()) partial (reply partial 2) with
  | Ok servers -> Alcotest.(check int) "partial accepts" 2 (List.length servers)
  | Error e -> Alcotest.failf "partial rejected: %a" C.Client.pp_error e);
  match C.Client.check_reply (fresh_client ()) partial (reply partial 0) with
  | Error (C.Client.Not_enough _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "empty reply must fail even partial"

let test_client_request_validation () =
  let client = C.Client.create ~rng:(Smart_util.Prng.create ~seed:1) () in
  Alcotest.(check bool) "zero wanted" true
    (try
       ignore
         (C.Client.make_request client ~wanted:0
            ~option:P.Wizard_msg.Accept_partial ~requirement:"");
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "over limit" true
    (try
       ignore
         (C.Client.make_request client ~wanted:61
            ~option:P.Wizard_msg.Accept_partial ~requirement:"");
       false
     with Invalid_argument _ -> true)

let test_client_lint () =
  (match C.Client.lint_requirement "host_cpu_free > 0.5\ntypo_var > 1\n" with
  | Ok unknown -> Alcotest.(check (list string)) "typo found" [ "typo_var" ] unknown
  | Error e -> Alcotest.failf "lint: %s" e);
  Alcotest.(check bool) "syntax error" true
    (Result.is_error (C.Client.lint_requirement "1 +\n"))

(* ------------------------------------------------------------------ *)
(* Simdriver end-to-end                                                 *)
(* ------------------------------------------------------------------ *)

let deploy ?config () =
  let c = H.Testbed.icpp2005 () in
  let d =
    C.Simdriver.deploy ?config c ~monitor:"dalmatian" ~wizard_host:"dalmatian"
      ~servers:H.Testbed.machine_names
  in
  (c, d)

let test_sim_end_to_end () =
  let _, d = deploy () in
  C.Simdriver.settle ~duration:8.0 d;
  Alcotest.(check int) "all 11 on wizard side" 11
    (C.Status_db.sys_count (C.Simdriver.db_wizard d));
  match
    C.Simdriver.request d ~client:"sagit" ~wanted:2
      ~requirement:"host_cpu_bogomips > 4000\n"
  with
  | Ok servers ->
    Alcotest.(check (list string)) "P4-2.4 pair" [ "dalmatian"; "dione" ]
      (List.sort compare servers)
  | Error e -> Alcotest.failf "request failed: %a" C.Client.pp_error e

let test_sim_failure_expiry () =
  let c, d = deploy () in
  C.Simdriver.settle ~duration:8.0 d;
  set_failed c "dione" true;
  (* 3 missed 2-second intervals plus slack *)
  C.Simdriver.settle ~duration:10.0 d;
  Alcotest.(check int) "failed server expired" 10
    (C.Status_db.sys_count (C.Simdriver.db_wizard d));
  (match
     C.Simdriver.request d ~client:"sagit" ~wanted:2
       ~requirement:"host_cpu_bogomips > 4000\n"
   with
  | Ok servers ->
    Alcotest.(check (list string)) "only dalmatian remains" [ "dalmatian" ]
      servers
  | Error e -> Alcotest.failf "request failed: %a" C.Client.pp_error e);
  (* revival brings it back *)
  set_failed c "dione" false;
  C.Simdriver.settle ~duration:6.0 d;
  Alcotest.(check int) "revived" 11
    (C.Status_db.sys_count (C.Simdriver.db_wizard d))

let test_sim_distributed_mode () =
  let config =
    { C.Simdriver.default_config with C.Simdriver.mode = C.Transmitter.Distributed }
  in
  let _, d = deploy ~config () in
  C.Simdriver.settle ~duration:8.0 d;
  (* no standing transmissions in distributed mode... *)
  Alcotest.(check int) "wizard db empty until a request" 0
    (C.Status_db.sys_count (C.Simdriver.db_wizard d));
  (* ...but a request pulls fresh data and gets answered *)
  match
    C.Simdriver.request d ~client:"sagit" ~wanted:2
      ~requirement:"host_cpu_bogomips > 4000\n"
  with
  | Ok servers -> Alcotest.(check int) "answered after pull" 2 (List.length servers)
  | Error e -> Alcotest.failf "request failed: %a" C.Client.pp_error e

let test_sim_workload_visible_to_wizard () =
  let c, d = deploy () in
  (* SuperPI on helene: the wizard must see the load and avoid it *)
  let node = H.Cluster.resolve_exn c "helene" in
  ignore
    (H.Machine.add_workload (H.Cluster.machine c node) ~now:(H.Cluster.now c)
       H.Machine.superpi);
  C.Simdriver.settle ~duration:120.0 d;
  match
    C.Simdriver.request d ~client:"sagit" ~wanted:20
      ~requirement:"host_system_load1 < 0.5\nhost_cpu_free > 0.9\n"
  with
  | Ok servers ->
    Alcotest.(check bool) "busy helene excluded" false
      (List.mem "helene" servers);
    Alcotest.(check int) "the other ten qualify" 10 (List.length servers)
  | Error e -> Alcotest.failf "request failed: %a" C.Client.pp_error e

(* Two server groups joined by a slow WAN link (Fig 3.8): the wizard on
   group A binds monitor_network_* per group from the monitor mesh. *)
let two_group_world () =
  let c =
    H.Testbed.switched_lan ~seed:31
      (* 8 Mbps, 20 ms inter-group WAN link *)
      ~trunks:
        [
          {
            Smart_net.Link.capacity = 8e6 /. 8.0;
            prop_delay = 10e-3;
            jitter = 50e-6;
            loss = 0.0;
          };
        ]
      [
        ("sw-a", "10.1.0.254", H.Testbed.helenes "10.1.0" [ "mon-a"; "a1"; "a2" ]);
        ("sw-b", "10.2.0.254", H.Testbed.helenes "10.2.0" [ "mon-b"; "b1"; "b2" ]);
      ]
  in
  let d =
    C.Simdriver.deploy_groups c ~wizard_host:"mon-a"
      ~groups:
        [ ("mon-a", [ "a1"; "a2" ]); ("mon-b", [ "b1"; "b2" ]) ]
  in
  (c, d)

let test_sim_multigroup () =
  let _, d = two_group_world () in
  C.Simdriver.settle ~duration:8.0 d;
  Alcotest.(check int) "all four servers mirrored" 4
    (C.Status_db.sys_count (C.Simdriver.db_wizard d));
  ignore (C.Simdriver.refresh_netmon ~trials:3 d);
  (* the mesh: each monitor published one record about its peer *)
  let records = C.Simdriver.all_netmon_records d in
  Alcotest.(check int) "mesh records from both monitors" 2
    (List.length records);
  List.iter
    (fun (r : P.Records.net_record) ->
      Alcotest.(check int) "one peer each" 1 (List.length r.P.Records.entries))
    records;
  (* high-bandwidth requirement: only the local group qualifies, because
     group B sits behind the 8 Mbps WAN link *)
  (match
     C.Simdriver.request d ~client:"a1" ~wanted:4
       ~requirement:"monitor_network_bw > 50\n"
   with
  | Ok servers ->
    Alcotest.(check (list string)) "local group only" [ "a1"; "a2" ]
      (List.sort compare servers)
  | Error e -> Alcotest.failf "request failed: %a" C.Client.pp_error e);
  (* low threshold: everyone qualifies *)
  (match
     C.Simdriver.request d ~client:"a1" ~wanted:4
       ~requirement:"monitor_network_bw > 5\n"
   with
  | Ok servers -> Alcotest.(check int) "all four" 4 (List.length servers)
  | Error e -> Alcotest.failf "request failed: %a" C.Client.pp_error e);
  (* delay requirement: the 20 ms WAN RTT excludes group B *)
  match
    C.Simdriver.request d ~client:"a1" ~wanted:4
      ~requirement:"monitor_network_delay < 5\n"
  with
  | Ok servers ->
    Alcotest.(check (list string)) "delay filter" [ "a1"; "a2" ]
      (List.sort compare servers)
  | Error e -> Alcotest.failf "request failed: %a" C.Client.pp_error e

(* Table 5.2's bandwidth column reads the components' own counters. *)
let test_sim_traffic_stats () =
  let _, d = deploy () in
  C.Simdriver.settle ~duration:8.0 d;
  let cv = counter_value (C.Simdriver.metrics d) in
  let probe_msgs = cv "probe.reports_total" in
  Alcotest.(check bool) "probes reported" true (probe_msgs >= 11 * 3);
  Alcotest.(check bool) "report size < 256 B" true
    (cv "probe.report_bytes_total" / probe_msgs < 256);
  Alcotest.(check bool) "transmitter pushed" true
    (cv "transmitter.pushes_total" > 0)

(* The deployment-wide metrics registry, asserted end-to-end: counters
   move in lockstep with the simulated traffic, and draining the
   deployment (probes silenced, packets delivered) makes sender-side and
   receiver-side counts agree exactly. *)
let test_sim_metrics_end_to_end () =
  let c, d = deploy () in
  C.Simdriver.settle ~duration:8.0 d;
  let m = C.Simdriver.metrics d in
  let cv = counter_value m in
  let gv = gauge_value m in
  (* one sequential netmon round over the 11 servers *)
  ignore (C.Simdriver.refresh_netmon ~trials:1 d);
  Alcotest.(check int) "one netmon round" 1 (cv "netmon.rounds_total");
  Alcotest.(check int) "11 netmon probes" 11 (cv "netmon.probes_total");
  Alcotest.(check int) "no probe failures" 0 (cv "netmon.probe_failures_total");
  Alcotest.(check (float 1e-9)) "all reachable" 11.0 (gv "netmon.reachable");
  (* three requests: wizard and client counters move in lockstep *)
  let replied = ref 0 in
  for _ = 1 to 3 do
    match
      C.Simdriver.request d ~client:"sagit" ~wanted:2
        ~requirement:"host_cpu_bogomips > 4000\n"
    with
    | Ok servers ->
      (* a reply's length depends on its servers, not its sequence *)
      replied :=
        !replied
        + String.length
            (P.Wizard_msg.encode_reply
               { P.Wizard_msg.seq = 0; servers; degraded = false;
                 rejected = false })
    | Error e -> Alcotest.failf "request failed: %a" C.Client.pp_error e
  done;
  Alcotest.(check int) "wizard handled 3" 3 (cv "wizard.requests_total");
  Alcotest.(check int) "reply bytes are the replies' summed length" !replied
    (cv "wizard.reply_bytes_total");
  Alcotest.(check int) "client built 3" 3 (cv "client.requests_total");
  Alcotest.(check int) "3 replies accepted" 3 (cv "client.replies_ok_total");
  Alcotest.(check int) "no replies rejected" 0 (cv "client.reply_errors_total");
  (match Smart_util.Metrics.find m "wizard.request_latency_seconds" with
  | Some (Smart_util.Metrics.Histogram h) ->
    Alcotest.(check int) "one latency observation per request" 3
      h.Smart_util.Metrics.count
  | _ -> Alcotest.fail "wizard.request_latency_seconds missing");
  (* receiver-side sanity while traffic flows *)
  Alcotest.(check bool) "frames mirrored" true (cv "receiver.frames_total" > 0);
  Alcotest.(check int) "no decode errors" 0 (cv "receiver.decode_errors_total");
  Alcotest.(check (float 1e-9)) "one transmitter stream" 1.0
    (gv "receiver.transmitters");
  (* silence every probe, let in-flight datagrams land: sender-side and
     monitor-side report counts must then agree exactly *)
  List.iter
    (fun h -> set_failed c h true)
    H.Testbed.machine_names;
  C.Simdriver.settle ~duration:1.0 d;
  Alcotest.(check bool) "probes reported" true (cv "probe.reports_total" > 0);
  Alcotest.(check int) "every probe report reached the sysmon"
    (cv "probe.reports_total")
    (cv "sysmon.reports_total");
  Alcotest.(check int) "no probe errors" 0 (cv "probe.errors_total");
  Alcotest.(check int) "no report parse errors" 0
    (cv "sysmon.parse_errors_total");
  (* three missed intervals later the sweep expires all 11, exactly once *)
  C.Simdriver.settle ~duration:10.0 d;
  Alcotest.(check int) "all 11 expired exactly once" 11
    (cv "sysmon.expired_total");
  Alcotest.(check (float 1e-9)) "hosts gauge drained" 0.0 (gv "sysmon.hosts")

(* Golden equivalence: reply sequences captured from the seed wizard
   (before the status-plane refactor) on the ICPP-2005 testbed.  The
   requests run in this exact order — each one advances virtual time —
   and every list is compared byte-for-byte, order included.  A diff
   here means the refactor changed behaviour, not just structure. *)
let test_sim_golden_selection () =
  let _, d = deploy () in
  C.Simdriver.settle ~duration:8.0 d;
  ignore (C.Simdriver.refresh_netmon ~trials:3 d);
  let req name ~wanted ~expect requirement =
    match C.Simdriver.request d ~client:"sagit" ~wanted ~requirement with
    | Ok servers -> Alcotest.(check (list string)) name expect servers
    | Error e -> Alcotest.failf "%s failed: %a" name C.Client.pp_error e
  in
  req "g1" ~wanted:5 ~expect:[ "dalmatian"; "dione" ]
    "host_cpu_bogomips > 4000\n";
  req "g2" ~wanted:4 ~expect:[ "dalmatian"; "dione"; "calypso"; "helene" ]
    "order_by = host_memory_free\n100 > 0\n";
  req "g3" ~wanted:3 ~expect:[ "calypso"; "dalmatian"; "dione" ]
    "host_cpu_free > 0.5\nuser_preferred_host1 = suna\n";
  req "g4" ~wanted:10
    ~expect:
      [ "calypso"; "dalmatian"; "dione"; "helene"; "lhost"; "mimas";
        "pandora-x"; "phoebe"; "sagit"; "telesto" ]
    "monitor_network_delay < 20\nhost_memory_free >= 50\n";
  req "g5" ~wanted:6
    ~expect:[ "dalmatian"; "pandora-x"; "calypso"; "helene"; "phoebe"; "titan-x" ]
    "order_by = host_cpu_bogomips\nhost_memory_free > 100\nuser_denied_host1 = dione\n";
  (* the scenario is stable across further virtual time *)
  C.Simdriver.settle ~duration:2.0 d;
  req "g1b" ~wanted:5 ~expect:[ "dalmatian"; "dione" ]
    "host_cpu_bogomips > 4000\n"

(* The trace plane end-to-end: one client request must yield one
   connected span tree (client -> wizard and its phases), and the
   standing report traffic must yield the pipeline tree
   (probe -> sysmon -> transmitter -> receiver -> commit), each tree
   tied together across components by nothing but propagated contexts. *)
let test_sim_trace_trees () =
  let module T = Smart_util.Tracelog in
  let _, d = deploy () in
  C.Simdriver.settle ~duration:8.0 d;
  (match
     C.Simdriver.request d ~client:"sagit" ~wanted:2
       ~requirement:"host_cpu_bogomips > 4000\n"
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "request failed: %a" C.Client.pp_error e);
  let entries = T.entries (C.Simdriver.tracelog d) in
  Alcotest.(check bool) "spans recorded" true (entries <> []);
  let by_span = Hashtbl.create 256 in
  List.iter (fun (e : T.entry) -> Hashtbl.replace by_span e.T.span_id e) entries;
  let parent_of (e : T.entry) = Hashtbl.find_opt by_span e.T.parent_id in
  let named name = List.filter (fun (e : T.entry) -> e.T.name = name) entries in
  let the name =
    match named name with
    | [ e ] -> e
    | l -> Alcotest.failf "expected exactly one %s span, got %d" name (List.length l)
  in
  (* --- the client request tree --- *)
  let client = the "client.request" in
  Alcotest.(check bool) "client span opens its own trace" true
    (client.T.trace_id = client.T.span_id);
  (* the span closes at the reply, not at the 5 ms runner tick after it *)
  Alcotest.(check bool) "client span shorter than a runner tick" true
    (client.T.duration < 0.005);
  let wizard = the "wizard.request" in
  Alcotest.(check int) "wizard joins the client trace" client.T.trace_id
    wizard.T.trace_id;
  Alcotest.(check int) "wizard parented on the client span" client.T.span_id
    wizard.T.parent_id;
  List.iter
    (fun phase ->
      let e = the phase in
      Alcotest.(check int)
        (phase ^ " in the client trace")
        client.T.trace_id e.T.trace_id;
      Alcotest.(check int)
        (phase ^ " parented on wizard.request")
        wizard.T.span_id e.T.parent_id)
    [ "wizard.parse"; "wizard.snapshot"; "wizard.select"; "wizard.reply" ];
  (* every span of the request trace is closed with a real duration *)
  List.iter
    (fun (e : T.entry) ->
      if e.T.trace_id = client.T.trace_id then
        Alcotest.(check bool) (e.T.name ^ " closed") false
          (Float.is_nan e.T.duration))
    entries;
  (* --- the report pipeline tree --- *)
  let commits = named "receiver.commit" in
  Alcotest.(check bool) "commits recorded" true (commits <> []);
  let commit = List.nth commits (List.length commits - 1) in
  let step name entry =
    match parent_of entry with
    | Some p ->
      Alcotest.(check string) ("parent is " ^ name) name p.T.name;
      Alcotest.(check int) (name ^ " in the same trace") entry.T.trace_id
        p.T.trace_id;
      p
    | None -> Alcotest.failf "%s has no retained parent" entry.T.name
  in
  let frame = step "receiver.frame" commit in
  let push = step "transmitter.push" frame in
  let ingest = step "sysmon.ingest" push in
  let tick = step "probe.tick" ingest in
  Alcotest.(check bool) "probe.tick is the root" true
    (tick.T.trace_id = tick.T.span_id && tick.T.parent_id = 0);
  (* the two trees are distinct traces *)
  Alcotest.(check bool) "request and report traces distinct" true
    (client.T.trace_id <> tick.T.trace_id)

(* ------------------------------------------------------------------ *)
(* Failure recovery                                                     *)
(* ------------------------------------------------------------------ *)

let test_transmitter_resend_backoff () =
  let db = C.Status_db.create () in
  C.Status_db.update_sys db (sys_record ~at:0.0 ());
  let m = Smart_util.Metrics.create () in
  let tx =
    C.Transmitter.create ~metrics:m ~monitor_name:"mon"
      {
        C.Transmitter.mode = C.Transmitter.Centralized;
        order = P.Endian.Little;
        receiver = { C.Output.host = "wiz"; port = P.Ports.receiver };
      }
      db
  in
  (* a failed push lands in the resend queue and arms the backoff, whose
     first delay is Backoff.default's 0.2 s *)
  let queued () = gauge_value m "transmitter.resend_queue" in
  C.Transmitter.note_send_failure tx ~now:0.0 ~data:"frame-1";
  Alcotest.(check (float 0.0)) "queued" 1.0 (queued ());
  Alcotest.(check int) "tick muted during backoff" 0
    (List.length (C.Transmitter.tick tx ~now:0.1));
  (* past the delay: the queued frame leads the next tick's outputs *)
  (match C.Transmitter.tick tx ~now:0.3 with
  | C.Output.Stream { data; _ } :: _ ->
    Alcotest.(check string) "resent first" "frame-1" data
  | _ -> Alcotest.fail "expected the resend stream first");
  Alcotest.(check int) "resend counted" 1
    (counter_value m "transmitter.resends_total");
  Alcotest.(check (float 0.0)) "queue drained" 0.0 (queued ());
  (* the queue holds 8: older frames are dropped, and metered *)
  for i = 0 to 8 do
    C.Transmitter.note_send_failure tx ~now:2.0 ~data:(string_of_int i)
  done;
  Alcotest.(check (float 0.0)) "capacity bound" 8.0 (queued ());
  Alcotest.(check int) "failures metered" 10
    (counter_value m "transmitter.send_failures_total");
  Alcotest.(check int) "drop metered" 1
    (counter_value m "transmitter.resend_dropped_total");
  (* a successful send resets the schedule *)
  C.Transmitter.note_send_ok tx;
  Alcotest.(check bool) "reset after success" true
    (C.Transmitter.tick tx ~now:2.1 <> [])

(* A traced client on a settable clock, with its registry and a request
   from it. *)
let exchange_client () =
  let m = Smart_util.Metrics.create () in
  let clock = ref 0.0 in
  let trace = Smart_util.Tracelog.create ~clock:(fun () -> !clock) () in
  let client =
    C.Client.create ~metrics:m ~trace ~rng:(Smart_util.Prng.create ~seed:5) ()
  in
  let request =
    C.Client.make_request client ~wanted:1
      ~option:P.Wizard_msg.Accept_partial ~requirement:"host_cpu_free > 0\n"
  in
  (m, clock, trace, client, request)

let request_span trace =
  match
    List.filter
      (fun (e : Smart_util.Tracelog.entry) -> e.name = "client.request")
      (Smart_util.Tracelog.entries trace)
  with
  | [ e ] -> e
  | l -> Alcotest.failf "expected one client.request span, got %d" (List.length l)

let step =
  Alcotest.testable
    (fun ppf -> function
      | C.Client.Send at -> Fmt.pf ppf "Send %g" at
      | C.Client.Wait at -> Fmt.pf ppf "Wait %g" at
      | C.Client.Done (Ok servers) ->
        Fmt.pf ppf "Done (Ok [%s])" (String.concat "; " servers)
      | C.Client.Done (Error e) -> Fmt.pf ppf "Done (Error %a)" C.Client.pp_error e
      | C.Client.Idle -> Fmt.string ppf "Idle")
    ( = )

(* No reply at all: with a jitter-free policy the exchange sends at 0,
   base and base + base * multiplier, waits out its deadline after the
   last send, and gives up there with its span closed. *)
let test_client_exchange_gives_up () =
  let m, clock, trace, client, request = exchange_client () in
  let backoff =
    Smart_util.Backoff.create
      (Smart_util.Backoff.policy ~base:1.0 ~multiplier:2.0 ~max_delay:8.0
         ~jitter:0.0 ())
  in
  let ex = C.Client.exchange client request ~sends:3 ~backoff ~deadline:10.0 in
  Alcotest.(check string) "datagram is the request"
    (P.Wizard_msg.encode_request request) (C.Client.datagram ex);
  let wake now expected =
    clock := now;
    Alcotest.check step (Printf.sprintf "wake at %g" now) expected
      (C.Client.wake ex ~now)
  in
  wake 0.0 (C.Client.Send 1.0);
  wake 1.0 (C.Client.Send 3.0);
  wake 3.0 (C.Client.Send 7.0);
  wake 7.0 (C.Client.Wait 10.0);
  wake 10.0 (C.Client.Done (Error C.Client.Timeout));
  wake 11.0 C.Client.Idle;
  Alcotest.(check int) "two retransmits" 2 (counter_value m "client.retries_total");
  (match registered m "client.request_attempts" with
  | Smart_util.Metrics.Histogram h ->
    Alcotest.(check int) "one observation" 1 h.Smart_util.Metrics.count;
    Alcotest.(check (float 0.0)) "of three sends" 3.0 h.Smart_util.Metrics.sum
  | _ -> Alcotest.fail "client.request_attempts is not a histogram");
  Alcotest.(check (float 1e-9)) "span closed at the give-up" 10.0
    (request_span trace).duration;
  (* a window longer than what is left is clipped to the deadline, and
     the wake there gives up *)
  let _, _, _, client, request = exchange_client () in
  let ex =
    C.Client.exchange client request ~sends:3
      ~backoff:(Smart_util.Backoff.create (Smart_util.Backoff.policy ~base:4.0 ~jitter:0.0 ()))
      ~deadline:3.0
  in
  Alcotest.check step "clipped" (C.Client.Send 3.0) (C.Client.wake ex ~now:0.0);
  Alcotest.check step "deadline" (C.Client.Done (Error C.Client.Timeout))
    (C.Client.wake ex ~now:3.0)

(* A reply for another sequence number is counted and dropped while the
   exchange waits on; the matching one ends it; a second copy of it
   afterwards changes nothing. *)
let test_client_exchange_replies () =
  let m, clock, trace, client, request = exchange_client () in
  let ex =
    C.Client.exchange client request ~sends:2
      ~backoff:(Smart_util.Backoff.create Smart_util.Backoff.default)
      ~deadline:5.0
  in
  (match C.Client.wake ex ~now:0.0 with
  | C.Client.Send _ -> ()
  | s -> Alcotest.failf "first wake: %a" (Alcotest.pp step) s);
  let reply seq =
    P.Wizard_msg.encode_reply
      { P.Wizard_msg.seq; servers = [ "a" ]; degraded = false; rejected = false }
  in
  let seq = request.P.Wizard_msg.seq in
  clock := 0.25;
  Alcotest.(check bool) "foreign reply dropped" true
    (C.Client.receive ex (reply (seq + 1)) = None);
  Alcotest.(check int) "foreign reply counted" 1
    (counter_value m "client.reply_errors_total");
  Alcotest.(check bool) "span still open" true
    (Float.is_nan (request_span trace).duration);
  clock := 0.5;
  (match C.Client.receive ex (reply seq) with
  | Some (Ok [ "a" ]) -> ()
  | Some (Ok _ | Error _) | None -> Alcotest.fail "matching reply must end the exchange");
  Alcotest.(check bool) "late copy ignored" true (C.Client.receive ex (reply seq) = None);
  Alcotest.(check bool) "garbage after the end ignored" true
    (C.Client.receive ex "junk" = None);
  Alcotest.check step "wake after the end" C.Client.Idle (C.Client.wake ex ~now:1.0);
  Alcotest.(check int) "one reply accepted" 1 (counter_value m "client.replies_ok_total");
  Alcotest.(check int) "no error added" 1 (counter_value m "client.reply_errors_total");
  Alcotest.(check int) "no retransmit" 0 (counter_value m "client.retries_total");
  Alcotest.(check (float 1e-9)) "span closed at the reply" 0.5
    (request_span trace).duration;
  (* an undecodable datagram ends an exchange as check_reply judges it *)
  let _, _, _, client, request = exchange_client () in
  let ex =
    C.Client.exchange client request ~sends:1
      ~backoff:(Smart_util.Backoff.create Smart_util.Backoff.default)
      ~deadline:5.0
  in
  ignore (C.Client.wake ex ~now:0.0);
  match C.Client.receive ex "junk" with
  | Some (Error (C.Client.Malformed _)) -> ()
  | _ -> Alcotest.fail "garbage must end the exchange as malformed"

let test_wizard_degraded_mode () =
  let db = C.Status_db.create () in
  C.Status_db.update_sys db (sys_record ~host:"a" ~ip:"1.0.0.1" ~at:0.0 ());
  let now = ref 0.0 in
  let m = Smart_util.Metrics.create () in
  let wizard =
    C.Wizard.create ~metrics:m
      ~clock:(fun () -> !now)
      ~staleness_threshold:5.0
      { C.Wizard.mode = C.Wizard.Centralized; groups = None }
      db
  in
  let ask () =
    let request = client_request "host_cpu_free > 0.5\n" in
    match
      C.Wizard.handle_request wizard ~now:!now
        ~from:{ C.Output.host = "c"; port = 1 }
        (P.Wizard_msg.encode_request request)
    with
    | [ C.Output.Udp { data; _ } ] ->
      (match P.Wizard_msg.decode_reply data with
      | Ok r -> r
      | Error e -> Alcotest.failf "reply: %s" e)
    | _ -> Alcotest.fail "expected one reply"
  in
  (* a database never fed through the receiver is not stale *)
  now := 100.0;
  Alcotest.(check bool) "never fed, not degraded" false
    (ask ()).P.Wizard_msg.degraded;
  C.Wizard.note_update wizard;
  now := 103.0;
  Alcotest.(check bool) "fresh feed" false (ask ()).P.Wizard_msg.degraded;
  (* feed quiet past the threshold: still answered, flagged stale *)
  now := 106.0;
  let r = ask () in
  Alcotest.(check bool) "stale feed degrades" true r.P.Wizard_msg.degraded;
  Alcotest.(check (list string)) "still answers from the last snapshot"
    [ "a" ] r.P.Wizard_msg.servers;
  Alcotest.(check int) "degraded metered" 1
    (counter_value m "wizard.degraded_replies_total");
  C.Wizard.note_update wizard;
  Alcotest.(check bool) "recovers when the feed resumes" false
    (ask ()).P.Wizard_msg.degraded

let test_sysmon_quarantine_flapping () =
  let db = C.Status_db.create () in
  let m = Smart_util.Metrics.create () in
  let sysmon =
    C.Sysmon.create ~metrics:m
      ~config:{ C.Sysmon.probe_interval = 1.0; missed_intervals = 1 }
      db
  in
  let data = P.Report.to_string (report ()) in
  let ingest now =
    match C.Sysmon.handle_report sysmon ~now data with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "report rejected: %s" e
  in
  (* three expire/re-register whipsaws reach the flap threshold *)
  ingest 0.0;
  Alcotest.(check int) "first expiry" 1 (C.Sysmon.sweep sysmon ~now:3.0);
  ingest 3.5;
  Alcotest.(check int) "second expiry" 1 (C.Sysmon.sweep sysmon ~now:7.0);
  Alcotest.(check (float 0.0)) "not quarantined below the threshold" 0.0
    (gauge_value m "sysmon.quarantined");
  ingest 7.5;
  Alcotest.(check int) "third expiry" 1 (C.Sysmon.sweep sysmon ~now:11.0);
  Alcotest.(check (float 0.0)) "quarantined" 1.0
    (gauge_value m "sysmon.quarantined");
  Alcotest.(check int) "quarantine metered" 1
    (counter_value m "sysmon.quarantined_total");
  (* while quarantined, reports are counted but not inserted *)
  ingest 12.0;
  ingest 13.0;
  ingest 14.0;
  Alcotest.(check int) "db stays empty" 0 (C.Status_db.sys_count db);
  Alcotest.(check int) "quarantined reports metered" 3
    (counter_value m "sysmon.quarantined_reports_total");
  (* a clean streak spanning three probe periods re-admits *)
  ingest 15.0;
  Alcotest.(check (float 0.0)) "re-admitted" 0.0
    (gauge_value m "sysmon.quarantined");
  Alcotest.(check int) "back in the database" 1 (C.Status_db.sys_count db);
  Alcotest.(check int) "re-admission metered" 1
    (counter_value m "sysmon.readmitted_total")

(* Satellite: the §4.1 three-missed-intervals expiry under a lossy
   substrate — reports ride 5%-loss links, the server goes silent, is
   expired, and re-registers once the silence lifts. *)
let test_sim_lossy_expiry_and_rereg () =
  let c = H.Cluster.create ~seed:77 () in
  let add name = H.Cluster.add_machine c (H.Testbed.spec_of_name name) in
  let sagit = add "sagit" in
  let mon = add "dalmatian" in
  let helene = add "helene" in
  let dione = add "dione" in
  let lossy = { H.Testbed.lan_conf with Smart_net.Link.loss = 0.05 } in
  ignore (H.Cluster.link c ~a:sagit ~b:mon H.Testbed.lan_conf);
  ignore (H.Cluster.link c ~a:mon ~b:helene lossy);
  ignore (H.Cluster.link c ~a:mon ~b:dione lossy);
  let d =
    C.Simdriver.deploy c ~monitor:"dalmatian" ~wizard_host:"dalmatian"
      ~servers:[ "helene"; "dione" ]
  in
  C.Simdriver.settle ~duration:8.0 d;
  Alcotest.(check int) "both registered despite loss" 2
    (C.Status_db.sys_count (C.Simdriver.db_wizard d));
  (* total silence: three missed 2 s probe intervals expire the server *)
  set_partitioned c "helene" true;
  C.Simdriver.settle ~duration:10.0 d;
  Alcotest.(check int) "expired after 3 missed intervals" 1
    (C.Status_db.sys_count (C.Simdriver.db_wizard d));
  Alcotest.(check bool) "expiry metered" true
    (counter_value (C.Simdriver.metrics d)
       "sysmon.expired_total"
    >= 1);
  (* the silence lifts: the next surviving report re-registers it *)
  set_partitioned c "helene" false;
  C.Simdriver.settle ~duration:8.0 d;
  Alcotest.(check int) "re-registered" 2
    (C.Status_db.sys_count (C.Simdriver.db_wizard d))

(* An entry of the seeded scenarios, at its own seed. *)
let run_scenario name =
  S.run (List.find (fun (s : S.t) -> String.equal s.S.name name) S.all)

let output (o : S.outcome) file = List.assoc file o.S.outputs

let answered (o : S.outcome) =
  match o.S.tally with
  | S.Answered { ok; total } -> (ok, total)
  | _ -> Alcotest.fail "not a request loop"

(* The acceptance chaos scenario: crash the wizard-feed transmitter
   mid-stream, partition the other group's monitor (overlapping, so the
   wizard's feed goes fully quiet and degraded mode engages), 2% frame
   corruption throughout — while a client fires 100 requests.  Both
   same-seed runs must produce byte-identical metrics and traces. *)
let test_sim_chaos_acceptance () =
  let o = run_scenario "chaos" in
  let ok, total = answered o in
  let m = C.Simdriver.metrics o.S.deployment in
  let db = C.Simdriver.db_wizard o.S.deployment in
  Alcotest.(check bool)
    (Printf.sprintf "at least 99%% requests answered (%d/%d)" ok total)
    true
    (float_of_int ok >= 0.99 *. float_of_int total);
  let cv name = counter_value m name in
  (* corruption was really injected and really survived: frames were
     damaged in flight, the receiver resynced past them, nothing died *)
  Alcotest.(check bool) "frames corrupted in flight" true
    (cv "faults.corrupted_messages_total" >= 1);
  Alcotest.(check bool) "receiver resynced past damage" true
    (cv "receiver.resyncs_total" >= 1);
  Alcotest.(check int) "no record-level decode failures" 0
    (cv "receiver.decode_errors_total");
  Alcotest.(check bool) "degraded replies while the feed was dark" true
    (cv "wizard.degraded_replies_total" >= 1);
  Alcotest.(check bool) "faults all fired" true (cv "faults.injected_total" >= 5);
  Alcotest.(check int) "mirror recovered after heal" 4
    (C.Status_db.sys_count db);
  (* same seed, same chaos: the whole observable surface is identical *)
  let o2 = run_scenario "chaos" in
  let ok2, _ = answered o2 in
  Alcotest.(check int) "same successes" ok ok2;
  Alcotest.(check string) "metrics byte-identical"
    (output o "chaos_metrics.txt") (output o2 "chaos_metrics.txt");
  Alcotest.(check string) "trace byte-identical" (output o "chaos_trace.json")
    (output o2 "chaos_trace.json")

(* ------------------------------------------------------------------ *)
(* Federation                                                           *)
(* ------------------------------------------------------------------ *)

(* Populate a status database with a slice of the diff-server pool
   (hosts s<i+1> for the given indices), mirroring exactly what the
   flat differential property above feeds the reference. *)
let build_diff_db ~monitor servers indices =
  let db = C.Status_db.create () in
  List.iter
    (fun i ->
      let s = servers.(i) in
      C.Status_db.update_sys db
        (sys_record
           ~host:(Printf.sprintf "s%d" (i + 1))
           ~ip:(Printf.sprintf "10.0.0.%d" (i + 1))
           ~cpu_free:s.ds_cpu_free ~load1:s.ds_load1 ~mem_free:s.ds_mem_free
           ~bogomips:s.ds_bogomips ~at:1.0 ()))
    indices;
  let net_entries =
    List.concat_map
      (fun i ->
        match servers.(i).ds_net with
        | Some (delay, bandwidth) ->
          [
            {
              P.Records.peer = Printf.sprintf "s%d" (i + 1);
              delay;
              bandwidth;
              measured_at = 1.0;
            };
          ]
        | None -> [])
      indices
  in
  if net_entries <> [] then
    C.Status_db.update_net db { P.Records.monitor; entries = net_entries };
  let sec_entries =
    List.concat_map
      (fun i ->
        match servers.(i).ds_sec with
        | Some level ->
          [ { P.Records.host = Printf.sprintf "s%d" (i + 1); level } ]
        | None -> [])
      indices
  in
  if sec_entries <> [] then
    C.Status_db.replace_sec db { P.Records.entries = sec_entries };
  db

(* The federation's core claim: partition the servers into shards, run
   the scored selection per shard, merge — and you get exactly the flat
   columnar selection over the union, regardless of shard count and of
   the order the shard replies are merged in. *)
let prop_fed_merge_matches_flat =
  QCheck.Test.make ~name:"shard fan-out + merge equals flat selection"
    ~count:400
    (QCheck.pair arbitrary_selection_case (QCheck.int_range 1 3))
    (fun ((servers, source, wanted), nshards) ->
      match Smart_lang.Requirement.compile_fast source with
      | Error _ -> false
      | Ok fast ->
        let n = Array.length servers in
        let all = List.init n (fun i -> i) in
        let flat_db = build_diff_db ~monitor:"mon" servers all in
        let flat_view =
          C.Status_db.columns flat_db ~net_for:(fun host ->
              C.Status_db.net_entry_for flat_db ~target:host)
        in
        let flat =
          C.Selection.select_columns (C.Selection.scratch ()) ~fast
            ~view:flat_view ~wanted
        in
        let shard_lists =
          List.init nshards (fun k ->
              let indices = List.filter (fun i -> i mod nshards = k) all in
              let db =
                build_diff_db ~monitor:(Printf.sprintf "mon-%d" k) servers
                  indices
              in
              let view =
                C.Status_db.columns db ~net_for:(fun host ->
                    C.Status_db.net_entry_for db ~target:host)
              in
              (* a fresh scratch and compile per shard, as each regional
                 wizard has its own *)
              match Smart_lang.Requirement.compile_fast source with
              | Error _ -> assert false
              | Ok fast ->
                ( Printf.sprintf "shard-%d" k,
                  C.Selection.select_scored (C.Selection.scratch ()) ~fast
                    ~view ~wanted ))
        in
        let merged = C.Selection.merge_candidates ~wanted shard_lists in
        let merged_rev =
          C.Selection.merge_candidates ~wanted (List.rev shard_lists)
        in
        List.equal String.equal flat merged
        && List.equal String.equal flat merged_rev)

(* A shard wizard answering a subquery: the reply carries the scored
   candidates of its local selection, stamped with shard name and
   generation. *)
let test_wizard_subquery () =
  let db = C.Status_db.create () in
  let m = Smart_util.Metrics.create () in
  List.iter
    (fun (host, ip, mem) ->
      C.Status_db.update_sys db
        (sys_record ~host ~ip ~mem_free:mem ~at:1.0 ()))
    [ ("s1", "10.0.0.1", 50.0); ("s2", "10.0.0.2", 150.0);
      ("s3", "10.0.0.3", 100.0) ];
  let wizard =
    C.Wizard.create ~metrics:m ~shard_name:"region-a"
      { C.Wizard.mode = C.Wizard.Centralized; groups = None }
      db
  in
  let query =
    {
      P.Fed_msg.seq = 9;
      wanted = 2;
      requirement = "order_by = host_memory_free\n";
      trace = Smart_util.Tracelog.root;
    }
  in
  let from = { C.Output.host = "root"; port = P.Ports.fed } in
  match
    C.Wizard.handle_subquery wizard ~from (P.Fed_msg.encode_query query)
  with
  | [ C.Output.Udp { dst; data } ] ->
    Alcotest.(check string) "reply to the root" "root" dst.C.Output.host;
    Alcotest.(check int) "on the fed port" P.Ports.fed dst.C.Output.port;
    (match P.Fed_msg.decode_reply data with
    | Error e -> Alcotest.failf "reply decode failed: %s" e
    | Ok reply ->
      Alcotest.(check int) "seq echoed" 9 reply.P.Fed_msg.seq;
      Alcotest.(check string) "shard stamped" "region-a" reply.P.Fed_msg.shard;
      Alcotest.(check bool) "fresh" false reply.P.Fed_msg.degraded;
      Alcotest.(check (list string)) "best two by memory" [ "s2"; "s3" ]
        (List.map (fun (c : P.Fed_msg.candidate) -> c.P.Fed_msg.host)
           reply.P.Fed_msg.candidates);
      List.iter
        (fun (c : P.Fed_msg.candidate) ->
          Alcotest.(check int) "non-preferred" (-1) c.P.Fed_msg.rank)
        reply.P.Fed_msg.candidates;
      Alcotest.(check (list (float 1e-9))) "order keys carried" [ 150.0; 100.0 ]
        (List.map (fun (c : P.Fed_msg.candidate) -> c.P.Fed_msg.key)
           reply.P.Fed_msg.candidates);
      Alcotest.(check int) "counted" 1
        (counter_value m "federation.shard_subqueries_total"))
  | _ -> Alcotest.fail "expected one UDP reply"

(* The root forwards canonical requirement text, so any client spelling
   of a requirement the shard has already compiled hits the shard-side
   compile cache — the regression the canonicalization fix pins. *)
let test_wizard_subquery_cache_key () =
  let db = C.Status_db.create () in
  C.Status_db.update_sys db (sys_record ~host:"s1" ~ip:"10.0.0.1" ~at:1.0 ());
  let wizard =
    C.Wizard.create ~shard_name:"region-a"
      { C.Wizard.mode = C.Wizard.Centralized; groups = None }
      db
  in
  let subquery source =
    let query =
      {
        P.Fed_msg.seq = 1;
        wanted = 1;
        requirement = Smart_lang.Requirement.canonical source;
        trace = Smart_util.Tracelog.root;
      }
    in
    ignore
      (C.Wizard.handle_subquery wizard
         ~from:{ C.Output.host = "root"; port = P.Ports.fed }
         (P.Fed_msg.encode_query query))
  in
  (* two formatting variants of one requirement, canonicalized as the
     root does before fanning out *)
  subquery "host_cpu_free>0.50000\n";
  subquery "host_cpu_free   >   0.5\n";
  let hits, misses = C.Wizard.compile_cache_stats wizard in
  Alcotest.(check int) "one compile" 1 misses;
  Alcotest.(check int) "variant spelling hits" 1 hits

(* Federated world: two shards of three servers each, a root above
   them.  All machines are helene-class, so every server answers a
   cpu_free requirement identically. *)
let fed_world ?(config = C.Simdriver.default_config) seed =
  let helenes = H.Testbed.helenes in
  let c =
    H.Testbed.switched_lan ~seed
      [
        ( "sw",
          "10.0.0.254",
          helenes "10.0.0" [ "root"; "cli" ]
          @ helenes "10.1.0" [ "shard-a"; "mon-a"; "a1"; "a2"; "a3" ]
          @ helenes "10.2.0" [ "shard-b"; "mon-b"; "b1"; "b2"; "b3" ] );
      ]
  in
  let d =
    C.Simdriver.deploy_federation ~config c ~root_host:"root"
      ~shards:
        [
          ("shard-a", [ ("mon-a", [ "a1"; "a2"; "a3" ]) ]);
          ("shard-b", [ ("mon-b", [ "b1"; "b2"; "b3" ]) ]);
        ]
  in
  (c, d)

let test_sim_federation_end_to_end () =
  let _, d = fed_world 11 in
  C.Simdriver.settle ~duration:8.0 d;
  let cv = counter_value (C.Simdriver.metrics d) in
  (* the shards mirror their servers (the request below gets all six
     from them); the root database holds none *)
  Alcotest.(check int) "root mirrors no raw records" 0
    (C.Status_db.sys_count (C.Simdriver.db_wizard d));
  (* digest uplinks reached the root *)
  Alcotest.(check bool) "digest frames counted" true
    (counter_value (C.Simdriver.metrics d) "federation.digests_received_total"
     >= 2);
  (* a client request is fanned out, merged, and covers both shards *)
  (match
     C.Simdriver.request d ~client:"cli" ~wanted:6
       ~requirement:"host_cpu_free > 0.1\n"
   with
  | Ok servers ->
    Alcotest.(check (list string)) "all six servers, merged in host order"
      [ "a1"; "a2"; "a3"; "b1"; "b2"; "b3" ]
      servers
  | Error e -> Alcotest.failf "request failed: %a" C.Client.pp_error e);
  Alcotest.(check int) "one subquery per shard" 2
    (cv "federation.subqueries_total");
  Alcotest.(check int) "both shards replied" 2
    (cv "federation.shard_replies_total");
  Alcotest.(check int) "no timeouts" 0 (cv "federation.timeouts_total");
  (* an order_by requirement merges by key across shards *)
  match
    C.Simdriver.request d ~client:"cli" ~wanted:4
      ~requirement:"host_cpu_free > 0.1\norder_by = host_memory_free\n"
  with
  | Ok servers -> Alcotest.(check int) "ranked four" 4 (List.length servers)
  | Error e -> Alcotest.failf "request failed: %a" C.Client.pp_error e

(* Digest routing: a requirement no shard can satisfy is answered at
   the root without any fan-out. *)
let test_sim_federation_routing () =
  let _, d = fed_world 12 in
  C.Simdriver.settle ~duration:8.0 d;
  let cv = counter_value (C.Simdriver.metrics d) in
  (* helene-class bogomips is ~3394: provably unsatisfiable everywhere.
     The root answers empty without fanning out, and the client reports
     the shortfall. *)
  (match
     C.Simdriver.request d ~option:P.Wizard_msg.Accept_partial ~client:"cli"
       ~wanted:2 ~requirement:"host_cpu_bogomips > 100000\n"
   with
  | Ok servers ->
    Alcotest.failf "expected an empty answer, got %d servers"
      (List.length servers)
  | Error (C.Client.Not_enough { got; _ }) ->
    Alcotest.(check int) "empty answer" 0 got
  | Error e -> Alcotest.failf "request failed: %a" C.Client.pp_error e);
  Alcotest.(check int) "both shards skipped, no subqueries" 0
    (cv "federation.subqueries_total");
  Alcotest.(check int) "skips counted" 2 (cv "federation.shards_skipped_total");
  (* a satisfiable requirement still fans out to both *)
  (match
     C.Simdriver.request d ~client:"cli" ~wanted:6
       ~requirement:"host_cpu_bogomips > 1000\n"
   with
  | Ok servers -> Alcotest.(check int) "all six" 6 (List.length servers)
  | Error e -> Alcotest.failf "request failed: %a" C.Client.pp_error e);
  Alcotest.(check int) "fan-out resumed" 2 (cv "federation.subqueries_total")

(* A shard cut off mid-request: the fan-out deadline releases a partial
   merge, flagged degraded, instead of stalling the client. *)
let test_sim_federation_partial () =
  let c, d = fed_world 13 in
  C.Simdriver.settle ~duration:8.0 d;
  set_partitioned c "shard-b" true;
  (match
     C.Simdriver.request d ~client:"cli" ~wanted:6
       ~requirement:"host_cpu_free > 0.1\n"
   with
  | Ok servers ->
    Alcotest.(check (list string)) "shard-a's servers still answered"
      [ "a1"; "a2"; "a3" ] servers
  | Error e -> Alcotest.failf "request failed: %a" C.Client.pp_error e);
  Alcotest.(check int) "deadline released the merge" 1
    (counter_value (C.Simdriver.metrics d) "federation.timeouts_total");
  Alcotest.(check bool) "reply flagged degraded" true
    (counter_value (C.Simdriver.metrics d) "federation.degraded_replies_total"
     >= 1);
  (* heal: the next request is whole again *)
  set_partitioned c "shard-b" false;
  C.Simdriver.settle ~duration:4.0 d;
  match
    C.Simdriver.request d ~client:"cli" ~wanted:6
      ~requirement:"host_cpu_free > 0.1\n"
  with
  | Ok servers -> Alcotest.(check int) "all six back" 6 (List.length servers)
  | Error e -> Alcotest.failf "request failed: %a" C.Client.pp_error e

(* Same seed, same federated world: the whole observable surface —
   metrics text and trace JSON — must be byte-identical. *)
let run_federation_determinism seed =
  let _, d = fed_world seed in
  C.Simdriver.settle ~duration:8.0 d;
  let reqs =
    List.map
      (fun requirement ->
        match C.Simdriver.request d ~client:"cli" ~wanted:4 ~requirement with
        | Ok servers -> servers
        | Error _ -> [])
      [
        "host_cpu_free > 0.1\n";
        "order_by = host_memory_free\n";
        "host_cpu_bogomips > 100000\n";
      ]
  in
  C.Simdriver.settle ~duration:2.0 d;
  ( reqs,
    Smart_util.Metrics.to_text (C.Simdriver.metrics d),
    C.Simdriver.trace_json d )

let test_sim_federation_determinism () =
  let r1, m1, t1 = run_federation_determinism 17 in
  let r2, m2, t2 = run_federation_determinism 17 in
  Alcotest.(check (list (list string))) "same answers" r1 r2;
  Alcotest.(check string) "metrics byte-identical" m1 m2;
  Alcotest.(check string) "trace byte-identical" t1 t2

(* The same cluster, deployed once flat under a wizard on "site" and
   once as a one-shard federation whose shard lives on "site": the site
   builder wires both, so the two must answer alike.  Servers are
   heterogeneous testbed machines in two groups; only host_* variables
   are asked, since the shard's uplink traffic can move network
   measurements. *)
let site_world seed =
  let helenes = H.Testbed.helenes in
  H.Testbed.switched_lan ~seed
    [
      ( "sw",
        "10.0.0.254",
        helenes "10.0.0" [ "root"; "cli"; "site" ]
        @ helenes "10.1.0" [ "mon-a" ]
        @ helenes "10.2.0" [ "mon-b" ]
        @ List.map H.Testbed.spec_of_name
            [ "dalmatian"; "sagit"; "pandora-x"; "telesto"; "dione"; "mimas" ]
      );
    ]

let test_sim_flat_and_shard_sites_agree () =
  let groups =
    [
      ("mon-a", [ "dalmatian"; "sagit"; "pandora-x" ]);
      ("mon-b", [ "telesto"; "dione"; "mimas" ]);
    ]
  in
  let flat =
    C.Simdriver.deploy_groups (site_world 23) ~wizard_host:"site" ~groups
  in
  let fed =
    C.Simdriver.deploy_federation (site_world 23) ~root_host:"root"
      ~shards:[ ("site", groups) ]
  in
  C.Simdriver.settle ~duration:8.0 flat;
  C.Simdriver.settle ~duration:8.0 fed;
  let ask d requirement wanted =
    match C.Simdriver.request d ~client:"cli" ~wanted ~requirement with
    | Ok servers -> servers
    | Error e ->
      Alcotest.failf "%S x%d failed: %a" requirement wanted C.Client.pp_error e
  in
  List.iter
    (fun requirement ->
      List.iter
        (fun wanted ->
          let expected = ask flat requirement wanted in
          Alcotest.(check bool) "flat answer non-empty" true (expected <> []);
          Alcotest.(check (list string))
            (Printf.sprintf "%S x%d" requirement wanted)
            expected (ask fed requirement wanted))
        [ 1; 3; 6 ])
    [
      "host_cpu_free > 0.1\n";
      "host_cpu_bogomips > 3300\n";
      "host_memory_total > 200\norder_by = host_cpu_bogomips\n";
      "order_by = host_memory_total\n";
    ]

(* ------------------------------------------------------------------ *)
(* Sketch plane and control loops (DESIGN.md §14)                       *)
(* ------------------------------------------------------------------ *)

module Sk = Smart_util.Sketch

(* The documented acceptance bound: the value the merged sketch returns
   for [p] must have a true rank in the exact sorted union within the
   sketch's [err_weight] of the nearest-rank target. *)
let rank_within union s p =
  let arr = Array.of_list union in
  Array.sort Float.compare arr;
  let n = Array.length arr in
  if n = 0 then true
  else begin
    let v = Sk.quantile s p in
    let err = Sk.err_weight s in
    let target =
      let r = int_of_float (Float.ceil (p *. float_of_int n)) in
      if r < 1 then 1 else if r > n then n else r
    in
    let below = ref 0 and upto = ref 0 in
    Array.iter
      (fun x ->
        if Float.compare x v < 0 then incr below;
        if Float.compare x v <= 0 then incr upto)
      arr;
    (* ranks occupied by [v] overlap [target - err, target + err] *)
    !below + 1 <= target + err && target - err <= !upto
  end

let sketch_root ~metrics shard_names =
  C.Fed_root.create ~metrics
    {
      C.Fed_root.shards =
        List.map
          (fun name ->
            { C.Fed_root.name;
              addr = { C.Output.host = name; port = P.Ports.fed } })
          shard_names;
      fanout_timeout = 1.0;
      routing = false;
    }

let shard_sketch_of ~seed values =
  let s = Sk.create ~k:32 ~rng:(Smart_util.Prng.create ~seed) () in
  List.iter (Sk.observe s) values;
  s

(* The root's served p50/p95/p99, and a sketch's quantiles at the same
   ranks. *)
let fed_latency_gauges m =
  List.map
    (fun q -> gauge_value m (Printf.sprintf "federation.fed_latency_p%d_s" q))
    [ 50; 95; 99 ]

let served_quantiles sketch =
  List.map (Sk.quantile sketch) [ 0.5; 0.95; 0.99 ]

let send_latency_sketch root shard sketch =
  C.Fed_root.note_sketches root
    { P.Sketch_msg.shard; entries = [ (C.Fed_root.latency_metric, sketch) ] }

(* A root merging >= 4 shards serves p50/p95/p99 within the merged
   sketch's rank-error bound of the exact percentile over the union of
   all shards' streams: its [federation.fed_latency_*] gauges read the
   quantiles of the batches' merge. *)
let prop_fed_root_quantiles_track_union =
  QCheck.Test.make
    ~name:"root quantiles over four shards track the union"
    ~count:150
    QCheck.(
      quad
        (list_of_size Gen.(int_range 1 250) (float_range 0.0 10.0))
        (list_of_size Gen.(int_range 1 250) (float_range 0.0 10.0))
        (list_of_size Gen.(int_range 0 250) (float_range 0.0 10.0))
        (list_of_size Gen.(int_range 0 250) (float_range 0.0 10.0)))
    (fun (xs, ys, zs, ws) ->
      let m = Smart_util.Metrics.create () in
      let root = sketch_root ~metrics:m [ "s1"; "s2"; "s3"; "s4" ] in
      let sketches =
        List.mapi (fun i values -> shard_sketch_of ~seed:(i + 1) values)
          [ xs; ys; zs; ws ]
      in
      List.iteri
        (fun i sketch ->
          send_latency_sketch root (Printf.sprintf "s%d" (i + 1)) sketch)
        sketches;
      let merged =
        List.fold_left Sk.merge (List.hd sketches) (List.tl sketches)
      in
      let union = xs @ ys @ zs @ ws in
      Sk.count merged = List.length union
      && List.for_all (rank_within union merged) [ 0.5; 0.95; 0.99 ]
      && List.for_all2
           (fun g q -> Float.compare g q = 0)
           (fed_latency_gauges m) (served_quantiles merged))

let test_fed_root_latest_batch_wins () =
  let m = Smart_util.Metrics.create () in
  let root = sketch_root ~metrics:m [ "s1"; "s2" ] in
  let first = shard_sketch_of ~seed:1 [ 1.0; 2.0; 3.0 ] in
  let s2 = shard_sketch_of ~seed:2 [ 10.0; 11.0 ] in
  let second = shard_sketch_of ~seed:3 [ 4.0 ] in
  send_latency_sketch root "s1" first;
  send_latency_sketch root "s2" s2;
  Alcotest.(check (list (float 0.0))) "gauges over {1, 2, 3, 10, 11}"
    (served_quantiles (Sk.merge first s2))
    (fed_latency_gauges m);
  send_latency_sketch root "s1" second;
  (* the second s1 batch replaced the first: the union is {4, 10, 11},
     p50 10; keeping both s1 batches reads 3, counting the new one
     twice reads 4 *)
  Alcotest.(check (list (float 0.0))) "latest batch per shard wins"
    (served_quantiles (Sk.merge second s2))
    (fed_latency_gauges m);
  Alcotest.(check (float 0.0)) "p50 of {4, 10, 11}" 10.0
    (List.hd (fed_latency_gauges m));
  Alcotest.(check int) "updates metered" 3
    (counter_value m "federation.sketch_updates_total")

(* The root's compile cache keys on [Requirement.cache_key] too: a
   broken text's cached error must not answer the valid text. *)
let test_fed_root_broken_text_first () =
  let m = Smart_util.Metrics.create () in
  let root = sketch_root ~metrics:m [ "s1" ] in
  let send requirement =
    ignore
      (C.Fed_root.handle_request root ~now:1.0
         ~from:{ C.Output.host = "c"; port = 1 }
         (P.Wizard_msg.encode_request (client_request ~wanted:3 requirement)))
  in
  send broken_requirement;
  Alcotest.(check int) "broken text: compile error" 1
    (counter_value m "federation.compile_errors_total");
  send valid_requirement;
  Alcotest.(check int) "valid text: no compile error" 1
    (counter_value m "federation.compile_errors_total");
  Alcotest.(check int) "valid text fanned out" 1
    (C.Fed_root.subqueries_sent root)

let test_probe_adaptive_interval () =
  let machine = H.Machine.create (H.Testbed.spec_of_name "helene") in
  let plain = C.Probe.create probe_config in
  Alcotest.(check bool) "non-adaptive probe has no interval" true
    (C.Probe.report_interval plain = None);
  let m = Smart_util.Metrics.create () in
  let probe =
    C.Probe.create ~metrics:m ~adaptive_base:1.0 probe_config
  in
  (* eight load1 samples before the first adaptation *)
  for i = 0 to 9 do
    let now = float_of_int i in
    ignore (C.Probe.tick probe ~now ~snapshot:(snapshot_of machine ~now))
  done;
  (match C.Probe.report_interval probe with
  | None -> Alcotest.fail "adaptive probe lost its interval"
  | Some interval ->
    (* an idle machine's load1 is flat: zero spread slides the factor
       all the way to Probe.max_factor *)
    Alcotest.(check (float 1e-9)) "flat signal relaxes to slowest cadence"
      2.0 interval;
    Alcotest.(check (float 1e-9)) "gauge mirrors the interval" interval
      (gauge_value m "probe.report_interval_seconds"));
  Alcotest.(check bool) "adaptation counted" true
    (counter_value m "probe.interval_adaptations_total" >= 1);
  Alcotest.(check bool) "non-positive base rejected" true
    (try
       ignore (C.Probe.create ~adaptive_base:0.0 probe_config);
       false
     with Invalid_argument _ -> true)

(* Eight hosts flap together, every report followed by an expiry, so
   each round adds one flap score per host.  Scores are exact at this
   count: q90 is the nearest-rank 90th percentile. *)
let test_sysmon_adaptive_threshold () =
  (* [fleet n]: an adaptive sysmon over [n] hosts, and [round ~at] has
     every host report at [at] and miss its one 1 s interval *)
  let fleet n =
    let db = C.Status_db.create () in
    let m = Smart_util.Metrics.create () in
    let sysmon =
      C.Sysmon.create ~metrics:m ~adaptive:true
        ~config:{ C.Sysmon.probe_interval = 1.0; missed_intervals = 1 }
        db
    in
    let hosts = List.init n (Printf.sprintf "h%d") in
    let round ~at =
      List.iter
        (fun host ->
          match
            C.Sysmon.handle_report sysmon ~now:at
              (P.Report.to_string (report ~host ()))
          with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "report rejected: %s" e)
        hosts;
      C.Sysmon.sweep sysmon ~now:(at +. 3.0)
    in
    (m, round)
  in
  let adaptations m = counter_value m "sysmon.threshold_adaptations_total" in
  let threshold m = gauge_value m "sysmon.effective_flap_threshold" in
  let quarantined m = gauge_value m "sysmon.quarantined" in
  (* two hosts, three rounds: at the first third expiry the scores are
     {1, 1, 2, 2, 3}, whose q90 of 3 would tune the threshold to
     round (1.5 x 3) = 5; five scores are below the eight tuning needs,
     so the fixed 3 holds and both hosts are quarantined *)
  let m, round = fleet 2 in
  Alcotest.(check int) "first round expires both" 2 (round ~at:0.0);
  Alcotest.(check int) "second round expires both" 2 (round ~at:3.5);
  Alcotest.(check (float 0.0)) "two flaps: nobody quarantined" 0.0
    (quarantined m);
  Alcotest.(check int) "third round expires both" 2 (round ~at:7.5);
  Alcotest.(check int) "too few samples to tune" 0 (adaptations m);
  Alcotest.(check (float 0.0)) "fixed threshold quarantines at 3" 2.0
    (quarantined m);
  let m, round = fleet 8 in
  Alcotest.(check int) "starts at the fixed threshold" 0 (adaptations m);
  (* eight scores of 1: q90 1, and 1.5 x 1 rounds to 2, below the fixed
     3; eight more of 2: 1.5 x 2 = 3, still the fixed threshold *)
  Alcotest.(check int) "first round expires all" 8 (round ~at:0.0);
  Alcotest.(check int) "second round expires all" 8 (round ~at:3.5);
  Alcotest.(check int) "no tuning below the fixed threshold" 0
    (adaptations m);
  Alcotest.(check (float 0.0)) "two flaps: nobody quarantined" 0.0
    (quarantined m);
  (* third round: the first host to reach 3 flaps meets the fixed
     threshold before its score can move q90; the second score of 3 lifts
     q90 to 3 and the threshold to round (1.5 x 3) = 5, which the fixed
     policy would not have: the other seven stay admitted *)
  Alcotest.(check int) "third round expires all" 8 (round ~at:7.5);
  Alcotest.(check (float 0.0)) "tuned from the flap distribution" 5.0
    (threshold m);
  Alcotest.(check int) "one adaptation" 1 (adaptations m);
  Alcotest.(check (float 0.0)) "tuned threshold defers quarantine" 1.0
    (quarantined m)

let test_wizard_adaptive_staleness () =
  let db = C.Status_db.create () in
  let now = ref 0.0 in
  let m = Smart_util.Metrics.create () in
  let wizard =
    C.Wizard.create ~metrics:m
      ~clock:(fun () -> !now)
      ~staleness_threshold:42.0 ~adaptive_staleness:true
      { C.Wizard.mode = C.Wizard.Centralized; groups = None }
      db
  in
  let adaptations () = counter_value m "wizard.staleness_adaptations_total" in
  let threshold () = gauge_value m "wizard.staleness_threshold_seconds" in
  Alcotest.(check int) "fixed threshold until samples arrive" 0
    (adaptations ());
  (* eight 1 s gaps: q99 = 1 s, threshold 5 x 1 = 5 s *)
  for i = 1 to 9 do
    now := float_of_int i;
    C.Wizard.note_update wizard
  done;
  Alcotest.(check (float 1e-9)) "derived from the gap distribution" 5.0
    (threshold ());
  (* one 100 s outage gap: q99 = 100 s, 5 x 100 clamps at the cap *)
  now := !now +. 100.0;
  C.Wizard.note_update wizard;
  Alcotest.(check (float 1e-9)) "outage gap clamps at the cap" 300.0
    (threshold ());
  Alcotest.(check int) "two adaptations" 2 (adaptations ());
  (* the private latency sketch is the shard uplink's: subqueries feed
     it, requests on the client port do not *)
  C.Status_db.update_sys db
    (sys_record ~host:"a" ~ip:"1.0.0.1" ~cpu_free:0.9 ~at:!now ());
  ignore
    (C.Wizard.handle_request wizard ~now:!now
       ~from:{ C.Output.host = "c"; port = 1 }
       (P.Wizard_msg.encode_request (client_request "host_cpu_free > 0.5\n")));
  Alcotest.(check int) "a request leaves the latency sketch empty" 0
    (Sk.count (C.Wizard.latency_sketch wizard));
  ignore
    (C.Wizard.handle_subquery wizard
       ~from:{ C.Output.host = "root"; port = 1 }
       (P.Fed_msg.encode_query
          {
            P.Fed_msg.seq = 1;
            wanted = 1;
            requirement = "host_cpu_free > 0.5\n";
            trace = Smart_util.Tracelog.root;
          }));
  Alcotest.(check int) "a subquery feeds the latency sketch" 1
    (Sk.count (C.Wizard.latency_sketch wizard))

(* Same seed, all three control loops armed: the closed loops must not
   cost determinism — metrics text and trace JSON stay byte-identical.
   (examples/control_demo.ml and the control-determinism CI job exercise
   the same property under a fault plan.) *)
let run_control_determinism seed =
  let config =
    {
      C.Simdriver.default_config with
      C.Simdriver.probe_interval = 1.0;
      transmit_interval = 0.5;
      control_loops = true;
    }
  in
  let _, d = fed_world ~config seed in
  C.Simdriver.settle ~duration:12.0 d;
  let reqs =
    List.map
      (fun requirement ->
        match C.Simdriver.request d ~client:"cli" ~wanted:4 ~requirement with
        | Ok servers -> servers
        | Error _ -> [])
      [ "host_cpu_free > 0.1\n"; "order_by = host_memory_free\n" ]
  in
  C.Simdriver.settle ~duration:5.0 d;
  ( reqs,
    Smart_util.Metrics.to_text (C.Simdriver.metrics d),
    C.Simdriver.trace_json d )

let test_sim_control_loops_deterministic () =
  let r1, m1, t1 = run_control_determinism 23 in
  let r2, m2, t2 = run_control_determinism 23 in
  Alcotest.(check (list (list string))) "same answers" r1 r2;
  Alcotest.(check string) "metrics byte-identical" m1 m2;
  Alcotest.(check string) "trace byte-identical" t1 t2;
  let contains line =
    List.exists
      (fun l -> String.length l >= String.length line
                && String.equal (String.sub l 0 (String.length line)) line)
      (String.split_on_char '\n' m1)
  in
  (* the sketch plane ran: shard uplinks reached the root and the
     deployment-wide gauges are being served *)
  Alcotest.(check bool) "sketch batches reached the root" true
    (contains "federation.sketches_received_total counter");
  Alcotest.(check bool) "fed p99 gauge served" true
    (contains "federation.fed_latency_p99_s gauge");
  Alcotest.(check bool) "probe loop armed" true
    (contains "probe.report_interval_seconds gauge")

(* ------------------------------------------------------------------ *)
(* The session plane (DESIGN.md §15)                                   *)
(* ------------------------------------------------------------------ *)

let test_session_pool_lifecycle () =
  let clock = ref 0.0 in
  let m = Smart_util.Metrics.create () in
  let pool =
    C.Session.pool ~metrics:m ~keepalive_interval:5.0
      ~clock:(fun () -> !clock)
      ()
  in
  (* each bind holds one reference on its entry, each retire drops it *)
  let bind name host =
    let s = C.Session.session pool ~name in
    C.Session.selecting s;
    (s, C.Session.bind pool s ~host ~origin:Smart_util.Tracelog.root)
  in
  let s1, ca = bind "s1" "a" in
  Alcotest.(check bool) "fresh bind connects" true
    (C.Session.conn_state ca = C.Session.Connecting);
  C.Session.established pool ca;
  (* a second session binding the same host shares the entry *)
  let s2, ca' = bind "s2" "a" in
  Alcotest.(check bool) "same entry" true (ca == ca');
  Alcotest.(check int) "reuse metered" 1
    (counter_value m "session.pool_reused_total");
  C.Session.retire pool s2;
  C.Session.retire pool s1;
  Alcotest.(check (float 0.0)) "idle entry stays pooled" 1.0
    (gauge_value m "session.pool_size");
  (* fill past the 16 entries: the idle LRU entry is evicted, busy ones
     kept *)
  clock := 1.0;
  let sb, cb = bind "sb" "b" in
  C.Session.established pool cb;
  for i = 1 to 14 do
    ignore (bind (Printf.sprintf "sf%d" i) (Printf.sprintf "f%d" i))
  done;
  Alcotest.(check int) "nothing evicted at capacity" 0
    (counter_value m "session.pool_evicted_total");
  let _sc, cc = bind "sc" "c" in
  C.Session.established pool cc;
  Alcotest.(check int) "idle LRU evicted" 1
    (counter_value m "session.pool_evicted_total");
  Alcotest.(check bool) "evictee closed" true
    (C.Session.conn_state ca = C.Session.Closed);
  (* draining closes only once the in-flight work resolves: [s3]
     migrates off [b] with an item still out on it *)
  let s3, cb' = bind "s3" "b" in
  Alcotest.(check bool) "pooled entry reused" true (cb == cb');
  C.Session.work_started pool s3 cb';
  C.Session.retire pool sb;
  C.Session.begin_migration pool s3;
  ignore
    (C.Session.complete_migration pool s3 ~host:"c"
       ~origin:Smart_util.Tracelog.root);
  Alcotest.(check bool) "draining while busy" true
    (C.Session.conn_state cb' = C.Session.Draining);
  C.Session.work_done pool s3 cb';
  Alcotest.(check bool) "closed once empty" true
    (C.Session.conn_state cb' = C.Session.Closed);
  (* keep-alive: due entries come sorted, misses at the limit kill *)
  clock := 7.0;
  (match C.Session.keepalive_due pool ~now:!clock with
  | [ due ] ->
    Alcotest.(check string) "c is due" "c" (C.Session.conn_host due);
    for _ = 1 to 2 do
      C.Session.keepalive_sent pool due;
      C.Session.keepalive_miss pool due
    done;
    Alcotest.(check bool) "alive below the limit" true
      (C.Session.conn_state due = C.Session.Established);
    C.Session.keepalive_sent pool due;
    C.Session.keepalive_miss pool due;
    Alcotest.(check bool) "declared dead at the limit" true
      (C.Session.conn_state due = C.Session.Closed)
  | l -> Alcotest.failf "expected one due entry, got %d" (List.length l));
  Alcotest.(check int) "keepalive failure metered" 1
    (counter_value m "session.keepalive_failures_total")

let test_session_migration_states () =
  let clock = ref 0.0 in
  let m = Smart_util.Metrics.create () in
  let pool = C.Session.pool ~metrics:m ~clock:(fun () -> !clock) () in
  let s = C.Session.session pool ~name:"s" in
  C.Session.selecting s;
  let c1 = C.Session.bind pool s ~host:"a" ~origin:Smart_util.Tracelog.root in
  C.Session.established pool c1;
  (* an abandoned attempt returns to Active on the held server *)
  C.Session.begin_migration pool s;
  Alcotest.(check bool) "migrating" true
    (C.Session.session_state s = C.Session.Migrating);
  C.Session.abandon_migration pool s ~reason:"nothing qualified";
  Alcotest.(check bool) "back to active" true
    (C.Session.session_state s = C.Session.Active);
  Alcotest.(check int) "failure metered" 1
    (counter_value m "session.migration_failures_total");
  (* a completed handover binds the replacement and drains the old *)
  clock := 1.0;
  C.Session.begin_migration pool s;
  clock := 1.5;
  let c2 =
    C.Session.complete_migration pool s ~host:"b"
      ~origin:Smart_util.Tracelog.root
  in
  Alcotest.(check string) "bound to replacement" "b" (C.Session.conn_host c2);
  Alcotest.(check int) "migration counted" 1 (C.Session.session_migrations s);
  Alcotest.(check bool) "old connection gone" true
    (C.Session.conn_state c1 = C.Session.Closed);
  (match Smart_util.Metrics.find m "session.migration_latency_seconds" with
  | Some (Smart_util.Metrics.Histogram h) ->
    Alcotest.(check bool) "latency observed" true
      (h.Smart_util.Metrics.count = 1 && h.Smart_util.Metrics.sum > 0.49)
  | _ -> Alcotest.fail "migration latency histogram missing");
  (* same-host handover after the server recovers: the fresh bind must
     survive (the old record is not the one drained) *)
  C.Session.close pool c2;
  C.Session.begin_migration pool s;
  let c3 =
    C.Session.complete_migration pool s ~host:"b"
      ~origin:Smart_util.Tracelog.root
  in
  C.Session.established pool c3;
  Alcotest.(check bool) "rebound fresh to same host" true
    (not (c3 == c2) && C.Session.conn_state c3 = C.Session.Established)

let admission_request ~seq =
  P.Wizard_msg.encode_request
    {
      P.Wizard_msg.seq;
      server_num = 1;
      option = P.Wizard_msg.Accept_partial;
      requirement = "host_cpu_free >= 0\n";
      trace = Smart_util.Tracelog.root;
    }

let test_wizard_admission_gate () =
  let db = C.Status_db.create () in
  C.Status_db.update_sys db (sys_record ~host:"s1" ~ip:"10.0.0.1" ~at:0.0 ());
  let now = ref 0.0 in
  let m = Smart_util.Metrics.create () in
  let wizard =
    C.Wizard.create ~metrics:m
      ~clock:(fun () -> !now)
      ~admission:
        { C.Wizard.rate = 10.0; burst = 2.0; max_delay = 0.2; max_clients = 8 }
      { C.Wizard.mode = C.Wizard.Centralized; groups = None }
      db
  in
  let from = { C.Output.host = "cli"; port = 4001 } in
  let ask seq = C.Wizard.handle_request wizard ~now:!now ~from
      (admission_request ~seq) in
  let decode = function
    | [ C.Output.Udp { data; _ } ] ->
      (match P.Wizard_msg.decode_reply data with
      | Ok r -> r
      | Error e -> Alcotest.failf "reply decode failed: %s" e)
    | l -> Alcotest.failf "expected one reply, got %d outputs" (List.length l)
  in
  (* the burst is answered immediately *)
  Alcotest.(check bool) "1st immediate" false
    (decode (ask 1)).P.Wizard_msg.rejected;
  Alcotest.(check bool) "2nd immediate" false
    (decode (ask 2)).P.Wizard_msg.rejected;
  (* the next two wait 0.1 s and 0.2 s <= max_delay: parked, no reply *)
  Alcotest.(check int) "3rd parked" 0 (List.length (ask 3));
  Alcotest.(check int) "4th parked" 0 (List.length (ask 4));
  Alcotest.(check int) "two waiting" 2 (C.Wizard.delayed_count wizard);
  (* the fifth would wait 0.3 s > max_delay: shed, and its bytes count
     with the answers' *)
  let sent = counter_value m "wizard.reply_bytes_total" in
  let shed = decode (ask 5) in
  Alcotest.(check bool) "5th rejected" true shed.P.Wizard_msg.rejected;
  Alcotest.(check int) "rejection bytes metered"
    (sent + String.length (P.Wizard_msg.encode_reply shed))
    (counter_value m "wizard.reply_bytes_total");
  Alcotest.(check (list string)) "rejection carries no servers" []
    shed.P.Wizard_msg.servers;
  (* other clients have their own bucket: unaffected *)
  let other =
    C.Wizard.handle_request wizard ~now:!now
      ~from:{ C.Output.host = "other"; port = 4002 }
      (admission_request ~seq:6)
  in
  Alcotest.(check bool) "other client immediate" false
    (decode other).P.Wizard_msg.rejected;
  (* tokens accrue: the tick releases the parked requests in order *)
  now := 0.25;
  let released = C.Wizard.tick wizard ~now:!now in
  Alcotest.(check int) "both released" 2 (List.length released);
  (match released with
  | [ C.Output.Udp { data = d3; _ }; C.Output.Udp { data = d4; _ } ] ->
    (match (P.Wizard_msg.decode_reply d3, P.Wizard_msg.decode_reply d4) with
    | Ok r3, Ok r4 ->
      Alcotest.(check int) "arrival order kept" 3 r3.P.Wizard_msg.seq;
      Alcotest.(check int) "second in line" 4 r4.P.Wizard_msg.seq;
      Alcotest.(check bool) "released not flagged" false
        (r3.P.Wizard_msg.rejected || r4.P.Wizard_msg.rejected)
    | _ -> Alcotest.fail "released replies must decode")
  | _ -> Alcotest.fail "expected two released replies");
  Alcotest.(check int) "rejection metered" 1
    (counter_value m "wizard.admission_rejected_total");
  Alcotest.(check int) "delays metered" 2 (C.Wizard.admission_delayed wizard)

(* Rejections must not consume tokens: a client shed at the deadline is
   served normally once real time covers its backlog, rather than being
   driven ever deeper into debt by its own rejected retries. *)
let test_wizard_admission_reject_consumes_nothing () =
  let db = C.Status_db.create () in
  C.Status_db.update_sys db (sys_record ~host:"s1" ~ip:"10.0.0.1" ~at:0.0 ());
  let now = ref 0.0 in
  let m = Smart_util.Metrics.create () in
  let wizard =
    C.Wizard.create ~metrics:m
      ~clock:(fun () -> !now)
      ~admission:
        { C.Wizard.rate = 10.0; burst = 1.0; max_delay = 0.05; max_clients = 8 }
      { C.Wizard.mode = C.Wizard.Centralized; groups = None }
      db
  in
  let from = { C.Output.host = "cli"; port = 4001 } in
  let ask seq = C.Wizard.handle_request wizard ~now:!now ~from
      (admission_request ~seq) in
  ignore (ask 1);
  (* burst spent: a hammering client is shed over and over *)
  for seq = 2 to 20 do
    ignore (ask seq)
  done;
  Alcotest.(check int) "hammering shed" 19
    (counter_value m "wizard.admission_rejected_total");
  (* one refill interval later the client is served again — the 19
     rejections left no debt behind *)
  now := 0.11;
  match ask 21 with
  | [ C.Output.Udp { data; _ } ] ->
    (match P.Wizard_msg.decode_reply data with
    | Ok r -> Alcotest.(check bool) "served after backoff" false
        r.P.Wizard_msg.rejected
    | Error e -> Alcotest.failf "reply decode failed: %s" e)
  | l -> Alcotest.failf "expected one reply, got %d outputs" (List.length l)

(* Overload sheds evenly: identical clients offering the same 2x-rate
   pattern are admitted the same number of times — the Jain fairness
   index over admitted counts stays at 1 and nobody is starved. *)
let prop_admission_fairness =
  QCheck.Test.make ~name:"admission under overload sheds fairly" ~count:30
    (QCheck.pair (QCheck.int_range 2 6) (QCheck.int_range 2 4))
    (fun (nclients, overload) ->
      let db = C.Status_db.create () in
      C.Status_db.update_sys db
        (sys_record ~host:"s1" ~ip:"10.0.0.1" ~at:0.0 ());
      let admission =
        { C.Wizard.rate = 20.0; burst = 4.0; max_delay = 0.1; max_clients = 64 }
      in
      let now = ref 0.0 in
      let wizard =
        C.Wizard.create
          ~clock:(fun () -> !now)
          ~admission
          { C.Wizard.mode = C.Wizard.Centralized; groups = None }
          db
      in
      let admitted = Array.make nclients 0 in
      let count outputs =
        List.iter
          (fun output ->
            match output with
            | C.Output.Udp { dst; data } ->
              (match P.Wizard_msg.decode_reply data with
              | Ok r when not r.P.Wizard_msg.rejected ->
                let i = dst.C.Output.port - 4000 in
                if i >= 0 && i < nclients then admitted.(i) <- admitted.(i) + 1
              | Ok _ | Error _ -> ())
            | C.Output.Stream _ -> ())
          outputs
      in
      let dt = 1.0 /. (admission.C.Wizard.rate *. float_of_int overload) in
      let steps = int_of_float (1.0 /. dt) in
      let seq = ref 0 in
      for _ = 1 to steps do
        for i = 0 to nclients - 1 do
          incr seq;
          count
            (C.Wizard.handle_request wizard ~now:!now
               ~from:{ C.Output.host = Printf.sprintf "c%d" i;
                       port = 4000 + i }
               (admission_request ~seq:!seq))
        done;
        count (C.Wizard.tick wizard ~now:!now);
        now := !now +. dt
      done;
      now := !now +. admission.C.Wizard.max_delay +. 0.05;
      count (C.Wizard.tick wizard ~now:!now);
      let xs = Array.map float_of_int admitted in
      let sum = Array.fold_left ( +. ) 0.0 xs in
      let sumsq = Array.fold_left (fun a x -> a +. (x *. x)) 0.0 xs in
      let jain = sum *. sum /. (float_of_int nclients *. sumsq) in
      Array.for_all (fun n -> n > 0) admitted && jain >= 0.95)

(* Differential check of the pool's determinism against a reference LRU
   model: eviction picks exactly the least-recently-used idle entry
   (ties by host) and the keep-alive due list comes back host-sorted —
   the pool's behaviour is a pure function of the operation sequence,
   never of hash-table order. *)
let prop_session_pool_determinism =
  QCheck.Test.make ~name:"pool eviction follows the LRU model" ~count:60
    (QCheck.int_bound 0xFFFF)
    (fun seed ->
      let capacity = 16 in
      let clock = ref 0.0 in
      let m = Smart_util.Metrics.create () in
      let pool =
        C.Session.pool ~metrics:m ~keepalive_interval:2.0
          ~clock:(fun () -> !clock)
          ()
      in
      (* reference model: host -> (last_used stamp, refs).  A bind to a
         fresh entry touches twice (attach, then Connecting ->
         Established); a reuse touches once; retire never touches. *)
      let model : (string, int * int) Hashtbl.t = Hashtbl.create 8 in
      let stamp = ref 0 in
      let evictions = ref 0 in
      let model_victim () =
        Hashtbl.fold
          (fun host (st, refs) best ->
            if refs > 0 then best
            else
              match best with
              | None -> Some (host, st)
              | Some (_, bst) when st < bst -> Some (host, st)
              | Some (bhost, bst) when st = bst && host < bhost ->
                Some (host, st)
              | Some _ -> best)
          model None
      in
      (* the entry each host was last bound to, to see the victim close *)
      let conns : (string, C.Session.conn) Hashtbl.t = Hashtbl.create 8 in
      let rng = Smart_util.Prng.create ~seed in
      let held = ref [] in
      let sorted_ok = ref true and victims_closed = ref true in
      for _ = 1 to 480 do
        clock := !clock +. 0.3;
        match Smart_util.Prng.int rng ~bound:3 with
        | 0 ->
          let host =
            Printf.sprintf "h%d"
              (Smart_util.Prng.int rng ~bound:(capacity + 3))
          in
          let victim =
            match Hashtbl.find_opt model host with
            | Some (_, refs) ->
              incr stamp;
              Hashtbl.replace model host (!stamp, refs + 1);
              None
            | None ->
              let victim =
                if Hashtbl.length model < capacity then None
                else Option.map fst (model_victim ())
              in
              Option.iter (Hashtbl.remove model) victim;
              stamp := !stamp + 2;
              Hashtbl.replace model host (!stamp, 1);
              victim
          in
          let s = C.Session.session pool ~name:host in
          C.Session.selecting s;
          let c =
            C.Session.bind pool s ~host ~origin:Smart_util.Tracelog.root
          in
          C.Session.established pool c;
          Option.iter
            (fun v ->
              incr evictions;
              if C.Session.conn_state (Hashtbl.find conns v) <> C.Session.Closed
              then victims_closed := false)
            victim;
          Hashtbl.replace conns host c;
          held := s :: !held
        | 1 ->
          (match !held with
          | s :: rest ->
            let host =
              Option.fold ~none:"" ~some:C.Session.conn_host
                (C.Session.session_conn s)
            in
            C.Session.retire pool s;
            held := rest;
            (match Hashtbl.find_opt model host with
            | Some (st, refs) -> Hashtbl.replace model host (st, refs - 1)
            | None -> ())
          | [] -> ())
        | _ ->
          let due = C.Session.keepalive_due pool ~now:!clock in
          let hosts = List.map C.Session.conn_host due in
          if hosts <> List.sort String.compare hosts then sorted_ok := false
      done;
      !sorted_ok && !victims_closed
      && counter_value m "session.pool_evicted_total" = !evictions)

(* ------------------------------------------------------------------ *)
(* Session chaos acceptance (the DESIGN.md §15 gate)                   *)
(* ------------------------------------------------------------------ *)

(* A CPU hog, not a crash or partition, disqualifies the held server:
   every connection stays up, so only the watcher's re-qualification
   check can notice, and both sessions must migrate off it without
   requeueing or losing work. *)
let test_sim_session_requalify () =
  let c =
    H.Testbed.switched_lan ~seed:11
      [
        ( "sw",
          "10.0.0.254",
          H.Testbed.helenes "10.0.0" [ "wiz"; "cli"; "mon" ]
          @ H.Testbed.helenes "10.0.1" [ "s1"; "s2"; "s3" ] );
      ]
  in
  let config =
    { C.Simdriver.default_config with C.Simdriver.transmit_interval = 0.5 }
  in
  let d =
    C.Simdriver.deploy ~config c ~monitor:"mon" ~wizard_host:"wiz"
      ~servers:[ "s1"; "s2"; "s3" ]
  in
  C.Simdriver.settle ~duration:8.0 d;
  let s1 = H.Cluster.machine c (H.Cluster.resolve_exn c "s1") in
  ignore
    (Smart_sim.Engine.schedule_at (H.Cluster.engine c)
       ~time:(H.Cluster.now c +. 3.0)
       (fun () ->
         ignore
           (H.Machine.add_workload s1 ~now:(H.Cluster.now c)
              (H.Machine.cpu_hog ~demand:1.0))));
  let r =
    C.Simdriver.run_sessions d
      ~clients:[ ("cli", 2) ]
      ~requirement:"host_cpu_free > 0.5\n" ~work_interval:0.5 ~duration:12.0
  in
  Alcotest.(check int) "both sessions survived" 2 r.C.Simdriver.survived;
  Alcotest.(check int) "both left the hogged server" 2
    r.C.Simdriver.migrations;
  Alcotest.(check int) "nothing requeued" 0 r.C.Simdriver.work_requeued;
  Alcotest.(check int) "nothing lost" 0 r.C.Simdriver.work_lost;
  Alcotest.(check int) "every issued item completed" r.C.Simdriver.work_issued
    r.C.Simdriver.work_completed;
  Alcotest.(check int) "items issued" 46 r.C.Simdriver.work_issued

let session_chaos_ledger () =
  let o = run_scenario "session_chaos" in
  match o.S.tally with
  | S.Ledger r ->
    (r, output o "session_chaos_metrics.txt", output o "session_chaos_trace.json")
  | _ -> Alcotest.fail "session_chaos runs sessions"

(* The session_chaos scenario: four servers behind a switch, crash +
   partition mid-run, both healed before the drain. *)
let test_sim_session_chaos () =
  let r, mtext, tjson = session_chaos_ledger () in
  Alcotest.(check int) "every session survived" r.C.Simdriver.sessions
    r.C.Simdriver.survived;
  Alcotest.(check bool) "sessions migrated through the churn" true
    (r.C.Simdriver.migrations >= 1);
  Alcotest.(check int) "zero in-flight items lost" 0 r.C.Simdriver.work_lost;
  Alcotest.(check bool) "requeue path exercised" true
    (r.C.Simdriver.work_requeued >= 1);
  (* the ledger closes: everything issued either completed or requeued *)
  Alcotest.(check int) "work ledger closes" r.C.Simdriver.work_completed
    (r.C.Simdriver.work_issued - r.C.Simdriver.work_requeued);
  (* same seed, same churn: the observable surface is byte-identical *)
  let r2, mtext2, tjson2 = session_chaos_ledger () in
  Alcotest.(check int) "same migrations" r.C.Simdriver.migrations
    r2.C.Simdriver.migrations;
  Alcotest.(check string) "metrics byte-identical" mtext mtext2;
  Alcotest.(check string) "trace byte-identical" tjson tjson2

let () =
  Alcotest.run "smart_core"
    [
      ( "status_db",
        [
          Alcotest.test_case "update/replace" `Quick test_db_sys_update_and_replace;
          Alcotest.test_case "sweep" `Quick test_db_sweep;
          Alcotest.test_case "net entry lookup" `Quick test_db_net_entry_for;
          Alcotest.test_case "security" `Quick test_db_sec;
          Alcotest.test_case "generation semantics" `Quick test_db_generation;
          Alcotest.test_case "sweep bumps only on removal" `Quick
            test_db_sweep_generation;
          Alcotest.test_case "sys_records memoized" `Quick
            test_db_sys_records_cached;
          Alcotest.test_case "net entry determinism" `Quick
            test_db_net_entry_deterministic;
          QCheck_alcotest.to_alcotest prop_refresh_matches_rebuild_flat;
          QCheck_alcotest.to_alcotest prop_refresh_matches_rebuild_grouped;
        ] );
      ( "probe",
        [
          Alcotest.test_case "first tick" `Quick test_probe_first_tick;
          Alcotest.test_case "rates from deltas" `Quick
            test_probe_rates_from_deltas;
          Alcotest.test_case "bad snapshot" `Quick test_probe_bad_snapshot;
          Alcotest.test_case "missing iface" `Quick test_probe_missing_iface;
        ] );
      ( "sysmon",
        [
          Alcotest.test_case "ingest and expire" `Quick
            test_sysmon_ingest_and_expire;
          Alcotest.test_case "quarantine flapping server" `Quick
            test_sysmon_quarantine_flapping;
        ] );
      ( "netmon/secmon",
        [
          Alcotest.test_case "sequential probing" `Quick
            test_netmon_sequential_probing;
          Alcotest.test_case "probe bytes of a round" `Quick
            test_netmon_probe_bytes;
          Alcotest.test_case "secmon" `Quick test_secmon;
        ] );
      ( "transmitter/receiver",
        [
          Alcotest.test_case "round trip" `Quick
            test_transmitter_receiver_roundtrip;
          Alcotest.test_case "modes" `Quick test_transmitter_modes;
          Alcotest.test_case "update hook" `Quick test_receiver_update_hook;
          Alcotest.test_case "multi-transmitter ownership" `Quick
            test_receiver_multi_transmitter_ownership;
          Alcotest.test_case "ownership outlives a connection" `Quick
            test_receiver_ownership_outlives_connection;
          Alcotest.test_case "one-shot pushes keep one owner" `Quick
            test_receiver_one_shot_pushes;
          Alcotest.test_case "partial sys record rejected" `Quick
            test_receiver_rejects_partial_sys;
          QCheck_alcotest.to_alcotest prop_receiver_matches_direct_writes;
          QCheck_alcotest.to_alcotest prop_pushed_columns_bit_exact;
          Alcotest.test_case "group push rewrites its rows" `Quick
            test_rows_group_push;
          Alcotest.test_case "rows a summary refreshed are counted" `Quick
            test_rows_summary_refresh;
          Alcotest.test_case "remote group push rewrites its system rows" `Quick
            test_rows_remote_group_push;
          Alcotest.test_case "local network record rewrites the groups it names"
            `Quick test_rows_local_net_push;
          Alcotest.test_case "pushed rows refresh without allocating" `Quick
            test_rows_refresh_allocation;
          Alcotest.test_case "push cost linear in size" `Quick
            test_receiver_push_linear;
          Alcotest.test_case "resend queue + backoff" `Quick
            test_transmitter_resend_backoff;
        ] );
      ( "selection",
        [
          Alcotest.test_case "qualification filter" `Quick test_selection_filters;
          Alcotest.test_case "wanted limit" `Quick test_selection_wanted_limit;
          Alcotest.test_case "blacklist" `Quick test_selection_denied;
          Alcotest.test_case "preferred order" `Quick
            test_selection_preferred_order;
          Alcotest.test_case "preferred must qualify" `Quick
            test_selection_preferred_must_qualify;
          Alcotest.test_case "monitor bindings" `Quick
            test_selection_monitor_bindings;
          Alcotest.test_case "security binding" `Quick
            test_selection_security_binding;
          Alcotest.test_case "order_by ranking" `Quick test_selection_order_by;
          Alcotest.test_case "empty pool and 60-cap" `Quick
            test_selection_empty_and_limits;
          Alcotest.test_case "cut across sweep blocks" `Quick
            test_selection_cut_across_blocks;
          Alcotest.test_case "Fig 1.4 scenario" `Quick
            test_selection_fig14_scenario;
          QCheck_alcotest.to_alcotest prop_select_columns_matches_select;
          Alcotest.test_case "words flat in server count" `Quick
            test_selection_words_flat_in_size;
        ] );
      ( "wizard",
        [
          Alcotest.test_case "centralized reply" `Quick
            test_wizard_centralized_reply;
          Alcotest.test_case "bad requirement" `Quick test_wizard_bad_requirement;
          Alcotest.test_case "garbage dropped" `Quick test_wizard_garbage_dropped;
          Alcotest.test_case "distributed pull flow" `Quick
            test_wizard_distributed_pull_flow;
          Alcotest.test_case "compile cache" `Quick test_wizard_compile_cache;
          Alcotest.test_case "broken text before a valid one" `Quick
            test_wizard_broken_text_first;
          Alcotest.test_case "broken text after a valid one" `Quick
            test_wizard_broken_text_second;
          Alcotest.test_case "denies a host by its new IP" `Quick
            test_wizard_denies_new_ip;
          Alcotest.test_case "value-only push refreshes" `Quick
            test_wizard_value_push_refreshes;
          Alcotest.test_case "result cache + snapshot" `Quick
            test_wizard_result_cache_and_snapshot;
          Alcotest.test_case "distributed deadline" `Quick
            test_wizard_distributed_deadline;
          Alcotest.test_case "distributed repeats hit the result cache" `Quick
            test_wizard_distributed_repeats_hit_cache;
          Alcotest.test_case "degraded mode" `Quick test_wizard_degraded_mode;
        ] );
      ( "role",
        [
          Alcotest.test_case "scrape" `Quick test_role_scrape;
          Alcotest.test_case "wizard tick armed while parked" `Quick
            test_role_wizard_tick_armed;
        ] );
      ( "client",
        [
          Alcotest.test_case "sequence matching" `Quick test_client_seq_matching;
          Alcotest.test_case "option semantics" `Quick
            test_client_option_semantics;
          Alcotest.test_case "request validation" `Quick
            test_client_request_validation;
          Alcotest.test_case "requirement lint" `Quick test_client_lint;
          Alcotest.test_case "exchange gives up on schedule" `Quick
            test_client_exchange_gives_up;
          Alcotest.test_case "exchange reply matching" `Quick
            test_client_exchange_replies;
        ] );
      ( "simdriver",
        [
          Alcotest.test_case "end to end" `Quick test_sim_end_to_end;
          Alcotest.test_case "failure expiry and revival" `Quick
            test_sim_failure_expiry;
          Alcotest.test_case "distributed mode" `Quick test_sim_distributed_mode;
          Alcotest.test_case "workload visible" `Quick
            test_sim_workload_visible_to_wizard;
          Alcotest.test_case "multi-group deployment" `Quick
            test_sim_multigroup;
          Alcotest.test_case "traffic stats" `Quick test_sim_traffic_stats;
          Alcotest.test_case "metrics end to end" `Quick
            test_sim_metrics_end_to_end;
          Alcotest.test_case "golden selection equivalence" `Quick
            test_sim_golden_selection;
          Alcotest.test_case "trace span trees" `Quick test_sim_trace_trees;
          Alcotest.test_case "lossy expiry and re-register" `Quick
            test_sim_lossy_expiry_and_rereg;
          Alcotest.test_case "chaos acceptance" `Slow test_sim_chaos_acceptance;
        ] );
      ( "federation",
        [
          QCheck_alcotest.to_alcotest prop_fed_merge_matches_flat;
          Alcotest.test_case "shard subquery reply" `Quick test_wizard_subquery;
          Alcotest.test_case "canonical spelling hits shard cache" `Quick
            test_wizard_subquery_cache_key;
          Alcotest.test_case "end to end" `Quick test_sim_federation_end_to_end;
          Alcotest.test_case "digest routing" `Quick test_sim_federation_routing;
          Alcotest.test_case "partial merge on shard loss" `Quick
            test_sim_federation_partial;
          Alcotest.test_case "same-seed determinism" `Slow
            test_sim_federation_determinism;
          Alcotest.test_case "flat and shard sites answer alike" `Quick
            test_sim_flat_and_shard_sites_agree;
          QCheck_alcotest.to_alcotest prop_fed_root_quantiles_track_union;
          Alcotest.test_case "latest sketch batch wins" `Quick
            test_fed_root_latest_batch_wins;
          Alcotest.test_case "broken text keeps its own cache key" `Quick
            test_fed_root_broken_text_first;
        ] );
      ( "control loops",
        [
          Alcotest.test_case "probe adapts its interval" `Quick
            test_probe_adaptive_interval;
          Alcotest.test_case "sysmon tunes its flap threshold" `Quick
            test_sysmon_adaptive_threshold;
          Alcotest.test_case "wizard derives staleness" `Quick
            test_wizard_adaptive_staleness;
          Alcotest.test_case "loops stay deterministic" `Slow
            test_sim_control_loops_deterministic;
        ] );
      ( "sessions",
        [
          Alcotest.test_case "pool lifecycle" `Quick
            test_session_pool_lifecycle;
          Alcotest.test_case "migration states" `Quick
            test_session_migration_states;
          Alcotest.test_case "wizard admission gate" `Quick
            test_wizard_admission_gate;
          Alcotest.test_case "rejections consume no tokens" `Quick
            test_wizard_admission_reject_consumes_nothing;
          QCheck_alcotest.to_alcotest prop_admission_fairness;
          QCheck_alcotest.to_alcotest prop_session_pool_determinism;
          Alcotest.test_case "cpu hog disqualifies held server" `Quick
            test_sim_session_requalify;
          Alcotest.test_case "session chaos acceptance" `Slow
            test_sim_session_chaos;
        ] );
    ]
