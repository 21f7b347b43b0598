(* Tests for the measurement layer: the RTT sweep and its MTU knee, the
   one-way UDP stream estimator (accuracy, sub-MTU under-estimation,
   shaped paths), and the packet-pair / SLoPS baselines. *)

module M = Smart_measure
module H = Smart_host

let mbps = Smart_util.Units.bytes_per_sec_to_mbps

let path_world ?(sagit_mtu = 1500) () =
  let f = H.Testbed.paths ~sagit_mtu () in
  let stack = H.Cluster.stack f.H.Testbed.cluster in
  (f, stack)

(* ------------------------------------------------------------------ *)
(* RTT sweep and knee                                                   *)
(* ------------------------------------------------------------------ *)

let sweep ?(mtu = 1500) () =
  let f, stack = path_world ~sagit_mtu:mtu () in
  let r =
    M.Rtt_probe.sweep ~min_size:100 ~max_size:4500 ~step:100 stack
      ~src:f.H.Testbed.sagit ~dst:f.H.Testbed.suna ()
  in
  (r, M.Rtt_probe.analyze r)

let test_sweep_complete () =
  let r, _ = sweep () in
  Alcotest.(check int) "no losses on the LAN" 0 r.M.Rtt_probe.lost;
  Alcotest.(check int) "45 samples" 45 (List.length r.M.Rtt_probe.samples);
  (* sorted by payload *)
  let payloads = List.map (fun s -> s.M.Rtt_probe.payload) r.M.Rtt_probe.samples in
  Alcotest.(check (list int)) "sorted" (List.sort compare payloads) payloads

let test_knee_tracks_mtu () =
  List.iter
    (fun mtu ->
      let _, knee = sweep ~mtu () in
      Alcotest.(check bool)
        (Printf.sprintf "significant at MTU %d" mtu)
        true knee.M.Rtt_probe.significant;
      Alcotest.(check bool)
        (Printf.sprintf "knee near MTU %d" mtu)
        true
        (Float.abs (knee.M.Rtt_probe.knee_bytes -. float_of_int mtu)
        < Float.max (0.15 *. float_of_int mtu) 150.0))
    [ 1500; 1000; 500 ]

let test_knee_slopes_formula36 () =
  let _, knee = sweep () in
  (* above the knee: the true available bandwidth (~100 Mbps) *)
  Alcotest.(check bool) "bw above ~ 95 Mbps" true
    (mbps knee.M.Rtt_probe.bw_above > 80.0
    && mbps knee.M.Rtt_probe.bw_above < 115.0);
  (* below: 1/(1/B + 1/Speed_init) with Speed_init = 25 Mbps -> ~20 Mbps *)
  Alcotest.(check bool) "bw below ~ 20 Mbps" true
    (mbps knee.M.Rtt_probe.bw_below > 12.0
    && mbps knee.M.Rtt_probe.bw_below < 25.0)

let test_no_knee_on_loopback () =
  let f, stack = path_world () in
  let r =
    M.Rtt_probe.sweep ~min_size:100 ~max_size:4500 ~step:100 stack
      ~src:f.H.Testbed.sagit ~dst:f.H.Testbed.sagit ()
  in
  let knee = M.Rtt_probe.analyze r in
  Alcotest.(check bool) "observation 1: no knee on loopback" false
    knee.M.Rtt_probe.significant

let test_ping_matches_table32 () =
  let f, stack = path_world () in
  List.iter
    (fun (p : H.Testbed.rtt_path) ->
      match
        M.Rtt_probe.ping ~count:3 stack ~src:p.H.Testbed.src
          ~dst:p.H.Testbed.dst ()
      with
      | Some rtt ->
        (* within a factor 2.5 of the thesis's ping column *)
        let ratio = rtt /. p.H.Testbed.ping_rtt in
        Alcotest.(check bool)
          (Printf.sprintf "path %s rtt %.3f ms vs %.3f ms"
             p.H.Testbed.label
             (Smart_util.Units.s_to_ms rtt)
             (Smart_util.Units.s_to_ms p.H.Testbed.ping_rtt))
          true
          (ratio > 0.4 && ratio < 2.5)
      | None -> Alcotest.failf "ping lost on path %s" p.H.Testbed.label)
    f.H.Testbed.paths

(* ------------------------------------------------------------------ *)
(* One-way UDP stream estimator                                         *)
(* ------------------------------------------------------------------ *)

let test_udp_stream_accuracy () =
  let f, stack = path_world () in
  match
    M.Udp_stream.measure ~trials:8 stack ~src:f.H.Testbed.sagit
      ~dst:f.H.Testbed.suna ()
  with
  | Some r ->
    Alcotest.(check int) "no failures" 0 r.M.Udp_stream.failures;
    Alcotest.(check bool) "avg within 20% of 95 Mbps" true
      (mbps r.M.Udp_stream.avg_bw > 76.0 && mbps r.M.Udp_stream.avg_bw < 120.0);
    Alcotest.(check bool) "min <= avg <= max" true
      (r.M.Udp_stream.min_bw <= r.M.Udp_stream.avg_bw +. 1e-9
      && r.M.Udp_stream.avg_bw <= r.M.Udp_stream.max_bw +. 1e-9)
  | None -> Alcotest.fail "measurement failed"

let test_udp_stream_sub_mtu_underestimates () =
  (* Table 3.3: probes below the MTU are dragged down by Speed_init *)
  let f, stack = path_world () in
  let measure s1 s2 =
    match
      M.Udp_stream.measure ~s1 ~s2 ~trials:6 stack ~src:f.H.Testbed.sagit
        ~dst:f.H.Testbed.suna ()
    with
    | Some r -> r.M.Udp_stream.avg_bw
    | None -> Alcotest.fail "measurement failed"
  in
  let below = measure 100 1000 in
  let above = measure 1600 2900 in
  Alcotest.(check bool) "sub-MTU < half of super-MTU" true
    (below < 0.5 *. above);
  Alcotest.(check bool) "sub-MTU ~ 18-21 Mbps" true
    (mbps below > 12.0 && mbps below < 26.0)

let test_udp_stream_through_shaper () =
  let f, stack = path_world () in
  let c = f.H.Testbed.cluster in
  ignore
    (H.Cluster.shape_access c ~node:f.H.Testbed.suna
       ~rate_bytes_per_sec:(Some (Smart_util.Units.mbps_to_bytes_per_sec 2.0)));
  match
    M.Udp_stream.measure ~trials:6 stack ~src:f.H.Testbed.sagit
      ~dst:f.H.Testbed.suna ()
  with
  | Some r ->
    Alcotest.(check bool) "measures the shaped rate" true
      (mbps r.M.Udp_stream.avg_bw > 1.5 && mbps r.M.Udp_stream.avg_bw < 2.6)
  | None -> Alcotest.fail "measurement failed"

let test_udp_stream_sees_background_flows () =
  (* a standing bulk flow consumes half the path; the estimator must see
     roughly the residual *)
  let f, stack = path_world () in
  let c = f.H.Testbed.cluster in
  let ubin = H.Cluster.resolve_exn c "ubin" in
  ignore
    (H.Cluster.shape_access c ~node:ubin
       ~rate_bytes_per_sec:(Some (Smart_util.Units.mbps_to_bytes_per_sec 50.0)));
  ignore
    (Smart_net.Flow.start (H.Cluster.flows c) ~src:ubin ~dst:f.H.Testbed.suna
       ~bytes:3_000_000_000 ~on_complete:(fun _ -> ()));
  match
    M.Udp_stream.measure ~trials:6 stack ~src:f.H.Testbed.sagit
      ~dst:f.H.Testbed.suna ()
  with
  | Some r ->
    Alcotest.(check bool) "sees ~50 Mbps residual" true
      (mbps r.M.Udp_stream.avg_bw > 35.0 && mbps r.M.Udp_stream.avg_bw < 70.0)
  | None -> Alcotest.fail "measurement failed"

let test_udp_stream_bad_sizes () =
  let f, stack = path_world () in
  Alcotest.(check bool) "s1 >= s2 rejected" true
    (try
       ignore
         (M.Udp_stream.measure ~s1:2000 ~s2:2000 stack ~src:f.H.Testbed.sagit
            ~dst:f.H.Testbed.suna ());
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Baselines                                                            *)
(* ------------------------------------------------------------------ *)

let test_packet_pair_on_clean_path () =
  let f, stack = path_world () in
  match
    M.Packet_pair.measure ~trials:15 stack ~src:f.H.Testbed.sagit
      ~dst:f.H.Testbed.suna ()
  with
  | Some r ->
    Alcotest.(check bool) "median near capacity" true
      (mbps r.M.Packet_pair.median_bw > 70.0
      && mbps r.M.Packet_pair.median_bw < 130.0);
    Alcotest.(check bool) "mostly reliable on a quiet LAN" true
      (r.M.Packet_pair.reliability > 0.4)
  | None -> Alcotest.fail "measurement failed"

let test_packet_pair_degrades_with_jitter () =
  (* §2.1: pipechar is "less robust to network delay fluctuations" *)
  let f, stack = path_world () in
  let clean =
    match
      M.Packet_pair.measure ~trials:15 stack ~src:f.H.Testbed.sagit
        ~dst:f.H.Testbed.suna ()
    with
    | Some r -> r.M.Packet_pair.reliability
    | None -> 0.0
  in
  (* the cmui path carries heavy jitter and bursty cross traffic *)
  let cmui = H.Cluster.resolve_exn f.H.Testbed.cluster "cmui" in
  let noisy =
    match
      M.Packet_pair.measure ~trials:15 stack ~src:f.H.Testbed.sagit ~dst:cmui ()
    with
    | Some r -> r.M.Packet_pair.reliability
    | None -> 0.0
  in
  Alcotest.(check bool)
    (Printf.sprintf "reliability drops (%.2f -> %.2f)" clean noisy)
    true (noisy < clean)

let test_slops_brackets_truth () =
  let f, stack = path_world () in
  let r = M.Slops.measure stack ~src:f.H.Testbed.sagit ~dst:f.H.Testbed.suna () in
  Alcotest.(check bool) "low <= high" true (r.M.Slops.low <= r.M.Slops.high);
  Alcotest.(check bool)
    (Printf.sprintf "bracket [%.1f, %.1f] overlaps ~95 Mbps"
       (mbps r.M.Slops.low) (mbps r.M.Slops.high))
    true
    (mbps r.M.Slops.low < 110.0 && mbps r.M.Slops.high > 70.0)

(* One stream each on the ~95 Mbps sagit -> suna path. *)
let test_slops_trend_detection () =
  let bracket ?count ~lo ~hi () =
    let f, stack = path_world () in
    let r =
      M.Slops.measure ~iterations:1 ?count ~lo:(lo *. 125_000.0)
        ~hi:(hi *. 125_000.0) stack ~src:f.H.Testbed.sagit
        ~dst:f.H.Testbed.suna ()
    in
    (mbps r.M.Slops.low, mbps r.M.Slops.high)
  in
  let near a b = Float.abs (a -. b) < 1e-6 in
  (* ~490 Mbps overloads the path: delays increase, [hi] comes down *)
  let lo, hi = bracket ~lo:400.0 ~hi:600.0 () in
  Alcotest.(check bool) "increasing" true (near lo 400.0 && hi < 600.0);
  (* ~14 Mbps leaves the queue empty: delays stay flat, [lo] goes up *)
  let lo, hi = bracket ~lo:10.0 ~hi:20.0 () in
  Alcotest.(check bool) "flat" true (lo > 10.0 && near hi 20.0);
  let lo, hi = bracket ~count:2 ~lo:400.0 ~hi:600.0 () in
  Alcotest.(check bool) "too short is inconclusive" true
    (near lo 400.0 && near hi 600.0)

(* ------------------------------------------------------------------ *)
(* Traceroute (TTL / time-exceeded)                                     *)
(* ------------------------------------------------------------------ *)

let test_ttl_time_exceeded () =
  let f, stack = path_world () in
  let c = f.H.Testbed.cluster in
  let tokxp = H.Cluster.resolve_exn c "tokxp" in
  let name node =
    (Smart_net.Topology.node (H.Cluster.topology c) node).Smart_net.Topology.name
  in
  (* ttl 1 dies at the first switch, which answers time-exceeded *)
  (match
     M.Traceroute.run ~max_ttl:1 ~measure_bandwidth:false stack
       ~src:f.H.Testbed.sagit ~dst:tokxp ()
   with
  | [ { M.Traceroute.node = Some node; rtt = Some rtt; _ } ] ->
    Alcotest.(check string) "first hop is the campus switch" "campus-sw"
      (name node);
    Alcotest.(check bool) "small rtt" true (rtt < 0.01)
  | _ -> Alcotest.fail "expected a router reply");
  (* a generous ttl reaches the destination *)
  match
    List.rev
      (M.Traceroute.run ~max_ttl:32 ~measure_bandwidth:false stack
         ~src:f.H.Testbed.sagit ~dst:tokxp ())
  with
  | { M.Traceroute.node = Some node; rtt = Some _; _ } :: _ ->
    Alcotest.(check string) "last hop is the destination" "tokxp" (name node)
  | _ -> Alcotest.fail "expected the destination's port-unreachable"

let test_traceroute_full_path () =
  let f, stack = path_world () in
  let c = f.H.Testbed.cluster in
  let tokxp = H.Cluster.resolve_exn c "tokxp" in
  let hops =
    M.Traceroute.run ~measure_bandwidth:false stack ~src:f.H.Testbed.sagit
      ~dst:tokxp ()
  in
  (* sagit -> campus-sw -> singaren -> apan-jp -> tokxp *)
  Alcotest.(check int) "four hops" 4 (List.length hops);
  let names =
    List.map
      (fun h ->
        match h.M.Traceroute.node with
        | Some node ->
          (Smart_net.Topology.node (H.Cluster.topology c) node)
            .Smart_net.Topology.name
        | None -> "*")
      hops
  in
  Alcotest.(check (list string)) "hop sequence"
    [ "campus-sw"; "singaren"; "apan-jp"; "tokxp" ]
    names;
  (* RTTs are monotone along this jitter-light path *)
  let rtts = List.filter_map (fun h -> h.M.Traceroute.rtt) hops in
  Alcotest.(check int) "every hop answered" 4 (List.length rtts);
  List.iteri
    (fun i rtt ->
      if i > 0 then
        Alcotest.(check bool) "rtt grows along the path" true
          (rtt >= List.nth rtts (i - 1) -. 0.002))
    rtts

let test_traceroute_ttls_are_sequential () =
  let f, stack = path_world () in
  let hops =
    M.Traceroute.run ~measure_bandwidth:false stack ~src:f.H.Testbed.sagit
      ~dst:f.H.Testbed.suna ()
  in
  Alcotest.(check (list int)) "ttl column"
    (List.init (List.length hops) (fun i -> i + 1))
    (List.map (fun h -> h.M.Traceroute.ttl) hops)

let () =
  Alcotest.run "smart_measure"
    [
      ( "rtt",
        [
          Alcotest.test_case "sweep complete" `Quick test_sweep_complete;
          Alcotest.test_case "knee tracks MTU (Figs 3.3-3.5)" `Quick
            test_knee_tracks_mtu;
          Alcotest.test_case "Formula 3.6 slopes" `Quick
            test_knee_slopes_formula36;
          Alcotest.test_case "no knee on loopback" `Quick
            test_no_knee_on_loopback;
          Alcotest.test_case "ping vs Table 3.2" `Quick test_ping_matches_table32;
        ] );
      ( "udp stream",
        [
          Alcotest.test_case "accuracy" `Quick test_udp_stream_accuracy;
          Alcotest.test_case "sub-MTU under-estimates (Table 3.3)" `Quick
            test_udp_stream_sub_mtu_underestimates;
          Alcotest.test_case "through a shaper" `Quick
            test_udp_stream_through_shaper;
          Alcotest.test_case "sees background flows" `Quick
            test_udp_stream_sees_background_flows;
          Alcotest.test_case "bad sizes" `Quick test_udp_stream_bad_sizes;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "packet pair clean path" `Quick
            test_packet_pair_on_clean_path;
          Alcotest.test_case "packet pair vs jitter" `Quick
            test_packet_pair_degrades_with_jitter;
          Alcotest.test_case "SLoPS brackets truth" `Quick
            test_slops_brackets_truth;
          Alcotest.test_case "SLoPS trend detection" `Quick
            test_slops_trend_detection;
        ] );
      ( "traceroute",
        [
          Alcotest.test_case "TTL time-exceeded" `Quick test_ttl_time_exceeded;
          Alcotest.test_case "full path" `Quick test_traceroute_full_path;
          Alcotest.test_case "sequential TTLs" `Quick
            test_traceroute_ttls_are_sequential;
        ] );
    ]
