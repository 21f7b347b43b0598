(* Example: a multi-group GRID deployment (Fig 3.8).

   Three server groups — a local lab, a campus cluster and a remote
   site — each with its own monitor machine.  The network monitors
   probe one another sequentially and publish the (delay, bandwidth)
   mesh of Table 3.4; the wizard binds monitor_network_* per group so a
   single requirement can trade computation power against connectivity
   across the whole grid. *)

module C = Smart_core
module H = Smart_host

(* A group's helene-class hosts with its own CPU speed. *)
let group ?(bogomips = 3394.76) subnet matmul_rate names =
  List.map
    (fun s -> { s with H.Machine.matmul_rate; bogomips })
    (H.Testbed.helenes subnet names)

let wan ~mbps ~ms =
  {
    Smart_net.Link.capacity = mbps *. 1e6 /. 8.0;
    prop_delay = ms /. 2000.0;
    jitter = 30e-6;
    loss = 0.0;
  }

let () =
  let c =
    H.Testbed.switched_lan ~seed:17
      (* the campus 2 ms away, the remote site behind a thin 4 Mbps pipe *)
      ~trunks:[ wan ~mbps:100.0 ~ms:2.0; wan ~mbps:4.0 ~ms:30.0 ]
      [
        (* group 1: the local lab *)
        ( "sw1",
          "10.1.0.254",
          group ~bogomips:1730.15 "10.1.0" 18e6 [ "lab-mon"; "lab-1"; "lab-2" ] );
        (* group 2: the campus cluster, faster machines *)
        ( "sw2",
          "10.2.0.254",
          group "10.2.0" 30e6 [ "campus-mon"; "campus-1"; "campus-2" ] );
        (* group 3: a remote site, fast machines *)
        ( "sw3",
          "10.3.0.254",
          group ~bogomips:4771.02 "10.3.0" 40e6
            [ "remote-mon"; "remote-1"; "remote-2" ] );
      ]
  in
  let d =
    C.Simdriver.deploy_groups c ~wizard_host:"lab-mon"
      ~groups:
        [
          ("lab-mon", [ "lab-1"; "lab-2" ]);
          ("campus-mon", [ "campus-1"; "campus-2" ]);
          ("remote-mon", [ "remote-1"; "remote-2" ]);
        ]
  in
  C.Simdriver.settle ~duration:8.0 d;
  ignore (C.Simdriver.refresh_netmon d);

  Fmt.pr "network monitor mesh (Table 3.4 layout):@.";
  List.iter
    (fun (r : Smart_proto.Records.net_record) ->
      List.iter
        (fun (e : Smart_proto.Records.net_entry) ->
          Fmt.pr "  %-12s -> %-12s %6.2f ms  %6.2f Mbps@."
            r.Smart_proto.Records.monitor e.Smart_proto.Records.peer
            (Smart_util.Units.s_to_ms e.Smart_proto.Records.delay)
            (Smart_util.Units.bytes_per_sec_to_mbps
               e.Smart_proto.Records.bandwidth))
        r.Smart_proto.Records.entries)
    (C.Simdriver.all_netmon_records d);

  let ask ?(wanted = 6) label requirement =
    match C.Simdriver.request d ~client:"lab-1" ~wanted ~requirement with
    | Ok servers -> Fmt.pr "@.%s@.  -> %s@." label (String.concat ", " servers)
    | Error e -> Fmt.pr "@.%s@.  -> error: %a@." label C.Client.pp_error e
  in
  ask "pure compute (every idle server across the grid qualifies):"
    "host_cpu_free > 0.5\n";
  ask "data-heavy job: at least 50 Mbps toward us (remote site drops out):"
    "host_cpu_free > 0.5\nmonitor_network_bw > 50\n";
  ask "latency-sensitive job: delay under 5 ms (remote site drops out):"
    "host_cpu_free > 0.5\nmonitor_network_delay < 5\n";
  (* the Ch. 6 extension: rank candidates instead of taking scan order *)
  ask ~wanted:2 "the two fastest CPUs anywhere (order_by ranking):"
    "host_cpu_free > 0.5\norder_by = host_cpu_bogomips\n"
