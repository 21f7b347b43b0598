(* Table 3.4: the network monitor mesh.  Three server-group monitors
   probe one another sequentially with the simulated monitor's own
   prober ([Simdriver.path_probe]); each publishes a (delay, bandwidth)
   row per peer.  The three inter-group links are given distinct
   capacities and delays so the mesh is visibly asymmetric. *)

type report = {
  records : Smart_proto.Records.net_record list;
  link_truth : (string * string * float * float) list;
      (* a, b, capacity Mbps, one-way delay s *)
}

let host name ip =
  {
    Smart_host.Machine.name;
    ip;
    cpu_model = "P4 2.4GHz";
    cpu_mhz = 2400.0;
    bogomips = 4771.02;
    ram_bytes = 512 * 1024 * 1024;
    os = "Redhat Linux 8.0";
    matmul_rate = 30e6;
    disk_rate = 8000.0;
  }

let conf ~mbps ~delay =
  {
    Smart_net.Link.capacity = mbps *. 1e6 /. 8.0;
    prop_delay = delay;
    jitter = delay /. 400.0;
    loss = 0.0;
  }

let run ?(trials = 8) () =
  let c = Smart_host.Cluster.create ~seed:11 () in
  let m1 = Smart_host.Cluster.add_machine c (host "netmon-1" "10.1.0.1") in
  let m2 = Smart_host.Cluster.add_machine c (host "netmon-2" "10.2.0.1") in
  let m3 = Smart_host.Cluster.add_machine c (host "netmon-3" "10.3.0.1") in
  let truth =
    [
      (m1, m2, 45.0, 4e-3, "netmon-1", "netmon-2");
      (m1, m3, 20.0, 11e-3, "netmon-1", "netmon-3");
      (m2, m3, 80.0, 2e-3, "netmon-2", "netmon-3");
    ]
  in
  List.iter
    (fun (a, b, mbps, delay, _, _) ->
      ignore (Smart_host.Cluster.link c ~a ~b (conf ~mbps ~delay)))
    truth;
  let stack = Smart_host.Cluster.stack c in
  let monitors =
    [ ("netmon-1", m1); ("netmon-2", m2); ("netmon-3", m3) ]
  in
  let db = Smart_core.Status_db.create () in
  let records =
    List.map
      (fun (name, node) ->
        let targets =
          List.filter_map
            (fun (peer, _) ->
              if String.equal peer name then None else Some peer)
            monitors
        in
        let netmon =
          Smart_core.Netmon.create
            { Smart_core.Netmon.monitor_name = name; targets }
            db
        in
        let prober ~target =
          Smart_core.Simdriver.path_probe ~trials stack ~src:node
            ~dst:(List.assoc target monitors)
        in
        Smart_core.Netmon.probe_all netmon
          ~now:(Smart_host.Cluster.now c)
          ~prober)
      monitors
  in
  {
    records;
    link_truth =
      List.map (fun (_, _, mbps, delay, a, b) -> (a, b, mbps, delay)) truth;
  }

let print (r : report) =
  let tab =
    Smart_util.Tabular.create
      ~title:"Table 3.4: network monitor records (delay, bandwidth)"
      ~header:[ "Net Monitor"; "peer"; "delay (ms)"; "bw (Mbps)" ]
  in
  List.iter
    (fun (rec_ : Smart_proto.Records.net_record) ->
      List.iter
        (fun (e : Smart_proto.Records.net_entry) ->
          Smart_util.Tabular.add_row tab
            [
              rec_.Smart_proto.Records.monitor;
              e.Smart_proto.Records.peer;
              Fmt.str "%.2f"
                (Smart_util.Units.s_to_ms e.Smart_proto.Records.delay);
              Fmt.str "%.1f"
                (Smart_util.Units.bytes_per_sec_to_mbps
                   e.Smart_proto.Records.bandwidth);
            ])
        rec_.Smart_proto.Records.entries)
    r.records;
  Smart_util.Tabular.print tab;
  let truth =
    Smart_util.Tabular.create ~title:"ground truth links"
      ~header:[ "link"; "capacity (Mbps)"; "one-way delay (ms)" ]
  in
  List.iter
    (fun (a, b, mbps, delay) ->
      Smart_util.Tabular.add_row truth
        [
          a ^ " <-> " ^ b;
          Fmt.str "%.0f" mbps;
          Fmt.str "%.1f" (Smart_util.Units.s_to_ms delay);
        ])
    r.link_truth;
  Smart_util.Tabular.print truth
