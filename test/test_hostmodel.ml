(* Tests for the host model: machine dynamics (jiffies, load averages,
   memory pools, disk/net counters), /proc synthesis and parsing
   (including the real /proc of the build host), workloads, testbed
   fixtures and the cluster bundle. *)

module H = Smart_host

let spec = H.Testbed.spec_of_name "helene"

(* ------------------------------------------------------------------ *)
(* Machine dynamics                                                     *)
(* ------------------------------------------------------------------ *)

let mem_free m = (H.Machine.spec m).H.Machine.ram_bytes - H.Machine.mem_used m

let mem_hog ~bytes =
  { (H.Machine.cpu_hog ~demand:0.1) with H.Machine.wl_name = "mem_hog";
    mem_bytes = bytes }

let test_idle_machine () =
  let m = H.Machine.create spec in
  H.Machine.sync m ~now:100.0;
  Alcotest.(check (float 1e-6)) "no demand" 0.0 (H.Machine.cpu_demand m);
  Alcotest.(check (float 0.5)) "idle jiffies accumulate" 10000.0
    m.H.Machine.jiffies_idle;
  Alcotest.(check (float 1e-6)) "no busy jiffies" 0.0 m.H.Machine.jiffies_user;
  Alcotest.(check (float 0.01)) "load stays zero" 0.0 m.H.Machine.load1

let test_busy_machine_jiffies () =
  let m = H.Machine.create spec in
  ignore (H.Machine.add_workload m ~now:0.0 (H.Machine.cpu_hog ~demand:1.0));
  H.Machine.sync m ~now:50.0;
  Alcotest.(check (float 0.5)) "user jiffies" 5000.0 m.H.Machine.jiffies_user;
  Alcotest.(check (float 0.5)) "no idle" 0.0 m.H.Machine.jiffies_idle;
  Alcotest.(check (float 1e-6)) "one runnable" 1.0 (H.Machine.cpu_demand m)

let test_loadavg_convergence () =
  let m = H.Machine.create spec in
  ignore (H.Machine.add_workload m ~now:0.0 (H.Machine.cpu_hog ~demand:2.0));
  H.Machine.sync m ~now:60.0;
  (* load1 after one time constant: 2 * (1 - e^-1) ~ 1.26 *)
  Alcotest.(check (float 0.05)) "one tau" (2.0 *. (1.0 -. Float.exp (-1.0)))
    m.H.Machine.load1;
  H.Machine.sync m ~now:600.0;
  Alcotest.(check (float 0.05)) "converged to demand" 2.0 m.H.Machine.load1;
  Alcotest.(check bool) "load5 slower than load1" true
    (m.H.Machine.load5 < m.H.Machine.load1 +. 1e-9);
  Alcotest.(check bool) "load15 slowest" true
    (m.H.Machine.load15 < m.H.Machine.load5 +. 1e-9)

let test_load_decay_after_removal () =
  let m = H.Machine.create spec in
  let id = H.Machine.add_workload m ~now:0.0 (H.Machine.cpu_hog ~demand:1.0) in
  H.Machine.sync m ~now:300.0;
  Alcotest.(check bool) "loaded" true (m.H.Machine.load1 > 0.9);
  Alcotest.(check bool) "removal works" true (H.Machine.remove_workload m ~now:300.0 id);
  Alcotest.(check bool) "unknown id" false
    (H.Machine.remove_workload m ~now:300.0 id);
  H.Machine.sync m ~now:600.0;
  Alcotest.(check bool) "load decays" true (m.H.Machine.load1 < 0.05)

let test_compute_share () =
  let m = H.Machine.create spec in
  Alcotest.(check (float 1e-9)) "idle share" 1.0 (H.Machine.compute_share m);
  ignore (H.Machine.add_workload m ~now:0.0 (H.Machine.cpu_hog ~demand:1.0));
  Alcotest.(check (float 1e-9)) "competing share" 0.5 (H.Machine.compute_share m)

let test_memory_accounting () =
  let m = H.Machine.create spec in
  let free0 = mem_free m in
  let id = H.Machine.add_workload m ~now:0.0 (mem_hog ~bytes:(32 * 1024 * 1024)) in
  Alcotest.(check int) "free drops by allocation" (free0 - (32 * 1024 * 1024))
    (mem_free m);
  ignore (H.Machine.remove_workload m ~now:1.0 id);
  Alcotest.(check int) "free restored" free0 (mem_free m)

let test_memory_reclaim_under_pressure () =
  let m = H.Machine.create spec in
  let buffers0 = m.H.Machine.mem_buffers in
  (* allocate beyond free: buffers then cache must shrink, and used can
     never exceed total *)
  ignore
    (H.Machine.add_workload m ~now:0.0
       (mem_hog ~bytes:(mem_free m + (64 * 1024 * 1024))));
  Alcotest.(check bool) "buffers reclaimed" true
    (m.H.Machine.mem_buffers < buffers0);
  Alcotest.(check bool) "used bounded by total" true
    (H.Machine.mem_used m <= spec.H.Machine.ram_bytes)

let test_superpi_table41_shape () =
  let m = H.Machine.create { spec with H.Machine.ram_bytes = 256 * 1024 * 1024 } in
  H.Machine.sync m ~now:10.0;
  let free_before = mem_free m in
  let cached_before = m.H.Machine.mem_cached in
  ignore (H.Machine.add_workload m ~now:10.0 H.Machine.superpi);
  H.Machine.sync m ~now:300.0;
  Alcotest.(check bool) "free collapses" true
    (mem_free m < free_before / 10);
  Alcotest.(check bool) "buffers shrink" true (m.H.Machine.mem_buffers < 1024 * 1024);
  Alcotest.(check bool) "cache grows" true (m.H.Machine.mem_cached > cached_before);
  Alcotest.(check bool) "load above 1" true (m.H.Machine.load1 > 1.0)

let test_disk_counters () =
  let m = H.Machine.create spec in
  ignore (H.Machine.add_workload m ~now:0.0 (H.Machine.disk_hog ~reqps:100.0));
  H.Machine.sync m ~now:10.0;
  Alcotest.(check (float 1.0)) "read requests" 500.0 m.H.Machine.disk_rreq;
  Alcotest.(check (float 1.0)) "write requests" 500.0 m.H.Machine.disk_wreq;
  Alcotest.(check (float 10.0)) "blocks are 8x requests" 4000.0
    m.H.Machine.disk_rblocks

let test_net_counters () =
  let m = H.Machine.create spec in
  H.Machine.count_tx m ~bytes:1000.0;
  H.Machine.count_rx m ~bytes:2896.0;
  Alcotest.(check (float 1e-6)) "tbytes" 1000.0 m.H.Machine.eth.H.Machine.tbytes;
  Alcotest.(check (float 1e-6)) "rbytes" 2896.0 m.H.Machine.eth.H.Machine.rbytes;
  Alcotest.(check bool) "packets counted" true
    (m.H.Machine.eth.H.Machine.rpackets >= 2.0)

let test_sync_monotone () =
  let m = H.Machine.create spec in
  H.Machine.sync m ~now:10.0;
  (* syncing into the past is a no-op, not a crash *)
  H.Machine.sync m ~now:5.0;
  Alcotest.(check (float 1e-9)) "clock keeps max" 10.0 m.H.Machine.last_sync

(* ------------------------------------------------------------------ *)
(* Procfs                                                               *)
(* ------------------------------------------------------------------ *)

let test_procfs_roundtrip () =
  let m = H.Machine.create spec in
  ignore (H.Machine.add_workload m ~now:0.0 (H.Machine.cpu_hog ~demand:0.5));
  H.Machine.sync m ~now:120.0;
  H.Machine.count_tx m ~bytes:4096.0;
  let snap = H.Procfs.snapshot_of_machine m ~now:120.0 in
  (match H.Procfs.parse_loadavg snap.H.Procfs.loadavg_text with
  | Ok l ->
    Alcotest.(check (float 0.01)) "load1 round trip" m.H.Machine.load1
      l.H.Procfs.l1
  | Error e -> Alcotest.failf "loadavg: %s" e);
  (match H.Procfs.parse_stat snap.H.Procfs.stat_text with
  | Ok (cpu, disk) ->
    Alcotest.(check (float 1.0)) "user jiffies" m.H.Machine.jiffies_user
      cpu.H.Procfs.user;
    Alcotest.(check (float 1e-6)) "disk" 0.0 disk.H.Procfs.rreq
  | Error e -> Alcotest.failf "stat: %s" e);
  (match H.Procfs.parse_meminfo (H.Procfs.render_meminfo m) with
  | Ok mem ->
    Alcotest.(check int) "total" spec.H.Machine.ram_bytes mem.H.Procfs.total;
    Alcotest.(check int) "used+free=total" mem.H.Procfs.total
      (mem.H.Procfs.used + mem.H.Procfs.free)
  | Error e -> Alcotest.failf "meminfo: %s" e);
  match H.Procfs.parse_net_dev snap.H.Procfs.netdev_text with
  | Ok stats ->
    let eth =
      List.find (fun s -> s.H.Procfs.iface = "eth0") stats
    in
    Alcotest.(check (float 1.0)) "tbytes" 4096.0 eth.H.Procfs.tbytes
  | Error e -> Alcotest.failf "net_dev: %s" e

(* the parsers accept the real modern /proc formats of the build host *)
let test_parse_real_proc () =
  if Sys.file_exists "/proc/loadavg" then begin
    let snap =
      match Smart_realnet.Proc_reader.snapshot Smart_realnet.Proc_reader.default with
      | Ok snap -> snap
      | Error e -> Alcotest.failf "cannot read /proc: %s" e
    in
    (match H.Procfs.parse_loadavg snap.H.Procfs.loadavg_text with
    | Ok l -> Alcotest.(check bool) "load sane" true (l.H.Procfs.l1 >= 0.0)
    | Error e -> Alcotest.failf "real loadavg: %s" e);
    (match H.Procfs.parse_stat snap.H.Procfs.stat_text with
    | Ok (cpu, _) ->
      Alcotest.(check bool) "jiffies sane" true (cpu.H.Procfs.idle >= 0.0)
    | Error e -> Alcotest.failf "real stat: %s" e);
    (match H.Procfs.parse_meminfo snap.H.Procfs.meminfo_text with
    | Ok m -> Alcotest.(check bool) "total positive" true (m.H.Procfs.total > 0)
    | Error e -> Alcotest.failf "real meminfo: %s" e);
    match H.Procfs.parse_net_dev snap.H.Procfs.netdev_text with
    | Ok stats -> Alcotest.(check bool) "interfaces" true (stats <> [])
    | Error e -> Alcotest.failf "real net_dev: %s" e
  end

let test_parse_modern_meminfo_format () =
  let text = "MemTotal:  1024 kB\nMemFree:  512 kB\nBuffers:  64 kB\nCached:  128 kB\n" in
  match H.Procfs.parse_meminfo text with
  | Ok m ->
    Alcotest.(check int) "total" (1024 * 1024) m.H.Procfs.total;
    Alcotest.(check int) "free" (512 * 1024) m.H.Procfs.free;
    Alcotest.(check int) "buffers" (64 * 1024) m.H.Procfs.buffers
  | Error e -> Alcotest.failf "modern meminfo: %s" e

let test_parse_garbage () =
  Alcotest.(check bool) "loadavg" true
    (Result.is_error (H.Procfs.parse_loadavg "what"));
  Alcotest.(check bool) "stat" true
    (Result.is_error (H.Procfs.parse_stat "nope\n"));
  Alcotest.(check bool) "meminfo" true
    (Result.is_error (H.Procfs.parse_meminfo "nope\n"));
  Alcotest.(check bool) "net_dev" true
    (Result.is_error (H.Procfs.parse_net_dev "nope\n"))

(* ------------------------------------------------------------------ *)
(* Testbed and cluster                                                  *)
(* ------------------------------------------------------------------ *)

let test_testbed_specs () =
  Alcotest.(check int) "11 machines" 11 (List.length H.Testbed.machine_names);
  let dalmatian = H.Testbed.spec_of_name "dalmatian" in
  Alcotest.(check (float 1e-6)) "bogomips of Table 5.1" 4771.02
    dalmatian.H.Machine.bogomips;
  (* Fig 5.2 shape: P3-866 and P4-2.4 beat every P4-1.6..1.8 *)
  let rate name = (H.Testbed.spec_of_name name).H.Machine.matmul_rate in
  List.iter
    (fun fast ->
      List.iter
        (fun slow ->
          Alcotest.(check bool)
            (fast ^ " faster than " ^ slow)
            true
            (rate fast > rate slow))
        [ "mimas"; "telesto"; "helene"; "phoebe"; "calypso"; "titan-x";
          "pandora-x" ])
    [ "sagit"; "lhost"; "dalmatian"; "dione" ]

let test_testbed_connectivity () =
  let c = H.Testbed.icpp2005 () in
  let topo = H.Cluster.topology c in
  let ids = List.map (H.Cluster.resolve_exn c) H.Testbed.machine_names in
  (* every machine reaches every other *)
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if a <> b then
            Alcotest.(check bool) "reachable" true
              (Smart_net.Topology.path topo ~src:a ~dst:b <> []))
        ids)
    ids

let test_cluster_resolve () =
  let c = H.Testbed.icpp2005 () in
  Alcotest.(check bool) "by name" true (H.Cluster.resolve c "sagit" <> None);
  Alcotest.(check bool) "by ip" true
    (H.Cluster.resolve c "192.168.1.2" <> None);
  Alcotest.(check bool) "unknown" true (H.Cluster.resolve c "nope" = None);
  Alcotest.check_raises "resolve_exn"
    (Invalid_argument "Cluster.resolve_exn: unknown host nope") (fun () ->
      ignore (H.Cluster.resolve_exn c "nope"))

let test_cluster_machines () =
  let c = H.Testbed.icpp2005 () in
  Alcotest.(check int) "11 machines attached" 11
    (List.length
       (List.filter
          (fun name ->
            H.Cluster.machine_opt c (H.Cluster.resolve_exn c name) <> None)
          H.Testbed.machine_names));
  let sagit = H.Cluster.resolve_exn c "sagit" in
  Alcotest.(check string) "machine spec" "sagit"
    (H.Machine.spec (H.Cluster.machine c sagit)).H.Machine.name;
  let backbone = H.Cluster.resolve_exn c "lab-bb" in
  Alcotest.(check bool) "switch has no machine" true
    (H.Cluster.machine_opt c backbone = None)

let test_cluster_flow_counts_nic_bytes () =
  let c = H.Testbed.icpp2005 () in
  let a = H.Cluster.resolve_exn c "sagit" in
  let b = H.Cluster.resolve_exn c "dione" in
  let done_ = ref false in
  ignore
    (Smart_net.Flow.start (H.Cluster.flows c) ~src:a ~dst:b ~bytes:1_000_000
       ~on_complete:(fun _ -> done_ := true));
  Smart_sim.Engine.run (H.Cluster.engine c) ~until:Float.infinity;
  Alcotest.(check bool) "flow completed" true !done_;
  let ma = H.Cluster.machine c a and mb = H.Cluster.machine c b in
  Alcotest.(check (float 1.0)) "sender tx counted" 1_000_000.0
    ma.H.Machine.eth.H.Machine.tbytes;
  Alcotest.(check (float 1.0)) "receiver rx counted" 1_000_000.0
    mb.H.Machine.eth.H.Machine.rbytes

let test_shape_egress () =
  let c = H.Testbed.icpp2005 () in
  let n = H.Cluster.resolve_exn c "lhost" in
  Alcotest.(check bool) "found channel" true
    (H.Cluster.shape_access c ~node:n ~rate_bytes_per_sec:(Some 1e6));
  let topo = H.Cluster.topology c in
  let out = List.hd (Smart_net.Topology.path topo ~src:n
                       ~dst:(H.Cluster.resolve_exn c "sagit")) in
  Alcotest.(check (float 1.0)) "flow capacity clamped" 1e6
    (Smart_net.Link.capacity_for_flows out);
  Alcotest.(check bool) "unshape" true
    (H.Cluster.shape_access c ~node:n ~rate_bytes_per_sec:None);
  Alcotest.(check (float 1.0)) "restored" 12.5e6
    (Smart_net.Link.capacity_for_flows out)

let test_paths_fixture () =
  let f = H.Testbed.paths () in
  Alcotest.(check int) "six paths" 6 (List.length f.H.Testbed.paths);
  let labels = List.map (fun p -> p.H.Testbed.label) f.H.Testbed.paths in
  Alcotest.(check (list string)) "labels a-f"
    [ "a"; "b"; "c"; "d"; "e"; "f" ] labels;
  (* path f is the loopback: src = dst *)
  let pf = List.nth f.H.Testbed.paths 5 in
  Alcotest.(check bool) "loopback" true (pf.H.Testbed.src = pf.H.Testbed.dst)

let prop_machine_used_bounded =
  QCheck.Test.make ~name:"memory used never exceeds RAM" ~count:200
    QCheck.(list (int_range 0 (384 * 1024 * 1024)))
    (fun allocs ->
      let m = H.Machine.create spec in
      List.iteri
        (fun i bytes ->
          ignore
            (H.Machine.add_workload m ~now:(float_of_int i)
               (mem_hog ~bytes)))
        allocs;
      H.Machine.mem_used m <= spec.H.Machine.ram_bytes
      && mem_free m >= 0)

let () =
  Alcotest.run "smart_host"
    [
      ( "machine",
        [
          Alcotest.test_case "idle" `Quick test_idle_machine;
          Alcotest.test_case "busy jiffies" `Quick test_busy_machine_jiffies;
          Alcotest.test_case "loadavg convergence" `Quick
            test_loadavg_convergence;
          Alcotest.test_case "load decay" `Quick test_load_decay_after_removal;
          Alcotest.test_case "compute share" `Quick test_compute_share;
          Alcotest.test_case "memory accounting" `Quick test_memory_accounting;
          Alcotest.test_case "reclaim under pressure" `Quick
            test_memory_reclaim_under_pressure;
          Alcotest.test_case "SuperPI Table 4.1 shape" `Quick
            test_superpi_table41_shape;
          Alcotest.test_case "disk counters" `Quick test_disk_counters;
          Alcotest.test_case "net counters" `Quick test_net_counters;
          Alcotest.test_case "sync monotone" `Quick test_sync_monotone;
        ] );
      ( "procfs",
        [
          Alcotest.test_case "render/parse round trip" `Quick
            test_procfs_roundtrip;
          Alcotest.test_case "real /proc of build host" `Quick
            test_parse_real_proc;
          Alcotest.test_case "modern meminfo" `Quick
            test_parse_modern_meminfo_format;
          Alcotest.test_case "garbage rejected" `Quick test_parse_garbage;
        ] );
      ( "testbed/cluster",
        [
          Alcotest.test_case "Table 5.1 specs" `Quick test_testbed_specs;
          Alcotest.test_case "connectivity" `Quick test_testbed_connectivity;
          Alcotest.test_case "resolve" `Quick test_cluster_resolve;
          Alcotest.test_case "machines" `Quick test_cluster_machines;
          Alcotest.test_case "flow NIC accounting" `Quick
            test_cluster_flow_counts_nic_bytes;
          Alcotest.test_case "shape egress" `Quick test_shape_egress;
          Alcotest.test_case "paths fixture" `Quick test_paths_fixture;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_machine_used_bounded ] );
    ]
