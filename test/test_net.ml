(* Tests for the network simulator: topology/routing, fragmentation,
   link service model, token-bucket shaper, max-min fair sharing, fluid
   flows, UDP/ICMP delivery. *)

module Engine = Smart_sim.Engine

(* Every queued event, however far ahead; the clock ends at infinity. *)
let run_until_idle e = Engine.run e ~until:Float.infinity
module Net = Smart_net

let lan =
  {
    Net.Link.capacity = 12.5e6;  (* 100 Mbps *)
    prop_delay = 100e-6;
    jitter = 0.0;
    loss = 0.0;
  }

(* a -- r -- b chain *)
let three_node_chain () =
  let topo = Net.Topology.create () in
  let a = Net.Topology.add_node topo ~name:"a" ~ip:"10.0.0.1" in
  let r = Net.Topology.add_node topo ~name:"r" ~ip:"10.0.0.2" in
  let b = Net.Topology.add_node topo ~name:"b" ~ip:"10.0.0.3" in
  ignore (Net.Topology.add_link topo ~a ~b:r lan);
  ignore (Net.Topology.add_link topo ~a:r ~b lan);
  (topo, a, r, b)

(* ------------------------------------------------------------------ *)
(* Topology and routing                                                 *)
(* ------------------------------------------------------------------ *)

let test_resolve () =
  let topo, a, _, _ = three_node_chain () in
  Alcotest.(check (option int)) "by name" (Some a) (Net.Topology.resolve topo "a");
  Alcotest.(check (option int))
    "by ip" (Some a)
    (Net.Topology.resolve topo "10.0.0.1");
  Alcotest.(check (option int)) "unknown" None (Net.Topology.resolve topo "zz")

let test_duplicate_node () =
  let topo, _, _, _ = three_node_chain () in
  Alcotest.check_raises "dup name"
    (Invalid_argument "Topology.add_node: duplicate name a") (fun () ->
      ignore (Net.Topology.add_node topo ~name:"a" ~ip:"10.9.9.9"))

let test_path_chain () =
  let topo, a, r, b = three_node_chain () in
  let path = Net.Topology.path topo ~src:a ~dst:b in
  Alcotest.(check int) "two hops" 2 (List.length path);
  (match path with
  | [ c1; c2 ] ->
    Alcotest.(check int) "hop1 src" a c1.Net.Link.src;
    Alcotest.(check int) "hop1 dst" r c1.Net.Link.dst;
    Alcotest.(check int) "hop2 dst" b c2.Net.Link.dst
  | _ -> Alcotest.fail "bad path");
  Alcotest.(check (list int)) "self path empty" []
    (List.map (fun (c : Net.Link.t) -> c.Net.Link.id)
       (Net.Topology.path topo ~src:a ~dst:a))

let test_no_route () =
  let topo = Net.Topology.create () in
  let a = Net.Topology.add_node topo ~name:"a" ~ip:"10.0.0.1" in
  let b = Net.Topology.add_node topo ~name:"b" ~ip:"10.0.0.2" in
  (try
     ignore (Net.Topology.path topo ~src:a ~dst:b);
     Alcotest.fail "expected No_route"
   with Net.Topology.No_route { src; dst } ->
     Alcotest.(check int) "src" a src;
     Alcotest.(check int) "dst" b dst);
  Alcotest.(check bool) "next_hop none" true
    (Net.Topology.next_hop topo ~src:a ~dst:b = None)

let test_shortest_path () =
  (* square with a diagonal shortcut: a-b-d and a-c-d, plus direct a-d *)
  let topo = Net.Topology.create () in
  let a = Net.Topology.add_node topo ~name:"a" ~ip:"1.0.0.1" in
  let b = Net.Topology.add_node topo ~name:"b" ~ip:"1.0.0.2" in
  let c = Net.Topology.add_node topo ~name:"c" ~ip:"1.0.0.3" in
  let d = Net.Topology.add_node topo ~name:"d" ~ip:"1.0.0.4" in
  ignore (Net.Topology.add_link topo ~a ~b lan);
  ignore (Net.Topology.add_link topo ~a:b ~b:d lan);
  ignore (Net.Topology.add_link topo ~a ~b:c lan);
  ignore (Net.Topology.add_link topo ~a:c ~b:d lan);
  ignore (Net.Topology.add_link topo ~a ~b:d lan);
  Alcotest.(check int) "direct link wins" 1
    (List.length (Net.Topology.path topo ~src:a ~dst:d))

(* ------------------------------------------------------------------ *)
(* Fragmentation                                                        *)
(* ------------------------------------------------------------------ *)

(* The wire sizes of the fragments [a] sends a UDP datagram of
   [payload] transport bytes (UDP header included) in, through an
   interface of [mtu], as the stack's byte hook counts them. *)
let fragment_sizes ~mtu ~payload =
  let engine = Engine.create () in
  let topo = Net.Topology.create () in
  let nic = { Net.Topology.default_nic with Net.Topology.mtu } in
  let a = Net.Topology.add_node topo ~nic ~name:"a" ~ip:"10.0.0.1" in
  let b = Net.Topology.add_node topo ~name:"b" ~ip:"10.0.0.2" in
  ignore (Net.Topology.add_link topo ~a ~b lan);
  let stack =
    Net.Netstack.create ~engine ~topo ~rng:(Smart_util.Prng.create ~seed:5) ()
  in
  let sizes = ref [] in
  Net.Netstack.set_byte_hook stack
    (Some (fun ~src ~dst:_ size -> if src = a then sizes := size :: !sizes));
  ignore
    (Net.Netstack.send_udp stack ~src:a ~dst:b ~sport:9 ~dport:7
       ~size:(payload - Net.Netstack.udp_header));
  run_until_idle engine;
  List.rev !sizes

let test_fragment_sizes () =
  (* 1480 data bytes per fragment at MTU 1500 *)
  Alcotest.(check (list int)) "small fits"
    [ 128 + 20 ]
    (fragment_sizes ~mtu:1500 ~payload:128);
  Alcotest.(check (list int)) "exactly one MTU"
    [ 1500 ]
    (fragment_sizes ~mtu:1500 ~payload:1480);
  Alcotest.(check (list int)) "split"
    [ 1500; 21 ]
    (fragment_sizes ~mtu:1500 ~payload:1481);
  Alcotest.(check int) "4000 B -> 3 fragments" 3
    (List.length (fragment_sizes ~mtu:1500 ~payload:4000))

let prop_fragments_conserve_bytes =
  QCheck.Test.make ~name:"fragmentation conserves payload bytes" ~count:300
    QCheck.(pair (int_range Net.Netstack.udp_header 20000) (int_range 100 9000))
    (fun (payload, mtu) ->
      let frags = fragment_sizes ~mtu ~payload in
      let data = List.fold_left (fun acc f -> acc + f - 20) 0 frags in
      data = payload
      && List.for_all (fun f -> f <= mtu && f > 20) frags)

(* ------------------------------------------------------------------ *)
(* Link service model                                                   *)
(* ------------------------------------------------------------------ *)

let test_link_serialization () =
  let rng = Smart_util.Prng.create ~seed:1 in
  let link = Net.Link.create ~id:0 ~src:0 ~dst:1 lan in
  (* 12500 bytes at 12.5 MB/s = 1 ms + 0.1 ms prop *)
  match Net.Link.transmit link ~rng ~now:0.0 ~size:12500 with
  | Some arrival ->
    Alcotest.(check (float 1e-9)) "store-and-forward" 0.0011 arrival
  | None -> Alcotest.fail "no loss expected"

let test_link_fifo () =
  let rng = Smart_util.Prng.create ~seed:1 in
  let link = Net.Link.create ~id:0 ~src:0 ~dst:1 lan in
  let a1 = Net.Link.transmit link ~rng ~now:0.0 ~size:12500 in
  let a2 = Net.Link.transmit link ~rng ~now:0.0 ~size:12500 in
  match (a1, a2) with
  | Some a1, Some a2 ->
    Alcotest.(check (float 1e-9)) "second queues behind first" 0.001
      (a2 -. a1)
  | _ -> Alcotest.fail "no loss expected"

let test_link_residual_under_load () =
  let rng = Smart_util.Prng.create ~seed:1 in
  let link = Net.Link.create ~id:0 ~src:0 ~dst:1 lan in
  Net.Link.set_cross_load link 6.25e6;  (* half the capacity *)
  match Net.Link.transmit link ~rng ~now:0.0 ~size:6250 with
  | Some arrival ->
    (* 6250 B at 6.25 MB/s = 1 ms *)
    Alcotest.(check (float 1e-9)) "serialised at residual" 0.0011 arrival
  | None -> Alcotest.fail "no loss expected"

let test_link_loss () =
  let rng = Smart_util.Prng.create ~seed:1 in
  let link =
    Net.Link.create ~id:0 ~src:0 ~dst:1 { lan with Net.Link.loss = 1.0 }
  in
  Alcotest.(check bool) "always lost" true
    (Net.Link.transmit link ~rng ~now:0.0 ~size:100 = None)

let test_capacity_for_flows_shaped () =
  let link = Net.Link.create ~id:0 ~src:0 ~dst:1 lan in
  Net.Link.set_shaper link (Some (Net.Shaper.create ~rate:1e6 ()));
  Alcotest.(check (float 1.0)) "clamped to shaper" 1e6
    (Net.Link.capacity_for_flows link);
  (* but packets still serialise at the physical rate:
     12500 B at 12.5 MB/s = 1 ms, plus 100 us propagation *)
  match
    Net.Link.transmit link ~rng:(Smart_util.Prng.create ~seed:1) ~now:0.0
      ~size:12500
  with
  | Some arrival ->
    Alcotest.(check (float 1e-9)) "physical rate unshaped" 0.0011 arrival
  | None -> Alcotest.fail "no loss expected"

(* ------------------------------------------------------------------ *)
(* Shaper                                                               *)
(* ------------------------------------------------------------------ *)

let test_shaper_burst_then_drain () =
  let s = Net.Shaper.create ~burst:1000.0 ~rate:1000.0 () in
  (* first 1000 bytes ride the burst *)
  Alcotest.(check (float 1e-9)) "burst free" 0.0
    (Net.Shaper.admit s ~now:0.0 ~size:1000);
  (* next 500 wait 0.5 s at 1000 B/s *)
  Alcotest.(check (float 1e-9)) "debt delays" 0.5
    (Net.Shaper.admit s ~now:0.0 ~size:500);
  (* after the wait the bucket is empty again: another 100 B waits 0.1 s *)
  Alcotest.(check (float 1e-9)) "sequential debt" 0.6
    (Net.Shaper.admit s ~now:0.5 ~size:100)

let test_shaper_refill_cap () =
  let s = Net.Shaper.create ~burst:1000.0 ~rate:1000.0 () in
  ignore (Net.Shaper.admit s ~now:0.0 ~size:1000);
  (* long idle: bucket refills but never beyond the burst *)
  Alcotest.(check (float 1e-9)) "capped refill" 100.0
    (Net.Shaper.admit s ~now:100.0 ~size:1000);
  Alcotest.(check (float 1e-9)) "empty right after" 100.5
    (Net.Shaper.admit s ~now:100.0 ~size:500)

let test_shaper_long_run_rate () =
  let s = Net.Shaper.create ~burst:1500.0 ~rate:1.0e5 () in
  (* push 1 MB through; total time must approach 10 s (rate 100 KB/s) *)
  let now = ref 0.0 in
  for _ = 1 to 1000 do
    now := Net.Shaper.admit s ~now:!now ~size:1000
  done;
  Alcotest.(check bool) "long-run rate" true
    (!now > 9.9 && !now < 10.1)

(* ------------------------------------------------------------------ *)
(* Fairshare                                                            *)
(* ------------------------------------------------------------------ *)

let test_fairshare_single_link () =
  let rates =
    Net.Fairshare.rates ~capacities:[| 10.0 |]
      ~flows:[| [ 0 ]; [ 0 ]; [ 0 ]; [ 0 ] |]
  in
  Array.iter (fun r -> Alcotest.(check (float 1e-9)) "equal share" 2.5 r) rates

let test_fairshare_water_filling () =
  (* classic example: link0 cap 1 shared by f0,f1; link1 cap 10 carries
     f1 only beyond its bottleneck -> f0 = 0.5, f1 = 0.5 *)
  let rates =
    Net.Fairshare.rates ~capacities:[| 1.0; 10.0 |]
      ~flows:[| [ 0 ]; [ 0; 1 ] |]
  in
  Alcotest.(check (float 1e-9)) "f0" 0.5 rates.(0);
  Alcotest.(check (float 1e-9)) "f1" 0.5 rates.(1)

let test_fairshare_unequal_bottlenecks () =
  (* f0 crosses tight link (cap 2) alone after sharing; f1 crosses wide
     link: f0 bottlenecked at 1 (sharing cap-2 link), f1 gets rest of
     wide link *)
  let rates =
    Net.Fairshare.rates ~capacities:[| 2.0; 10.0 |]
      ~flows:[| [ 0 ]; [ 0; 1 ]; [ 1 ] |]
  in
  Alcotest.(check (float 1e-9)) "shared tight" 1.0 rates.(0);
  Alcotest.(check (float 1e-9)) "shared tight 2" 1.0 rates.(1);
  Alcotest.(check (float 1e-9)) "wide remainder" 9.0 rates.(2)

let test_fairshare_empty_path () =
  let rates = Net.Fairshare.rates ~capacities:[| 1.0 |] ~flows:[| []; [ 0 ] |] in
  Alcotest.(check bool) "unconstrained" true (rates.(0) >= 1e12);
  Alcotest.(check (float 1e-9)) "constrained" 1.0 rates.(1)

let prop_fairshare_feasible =
  QCheck.Test.make ~name:"fairshare never oversubscribes a link" ~count:300
    QCheck.(
      pair
        (array_of_size Gen.(int_range 1 8) (float_range 1.0 100.0))
        (list_of_size Gen.(int_range 1 12) (list_of_size Gen.(int_range 0 4) (int_range 0 7))))
    (fun (capacities, flow_lists) ->
      let nlinks = Array.length capacities in
      let flows =
        Array.of_list
          (List.map
             (fun ls -> List.sort_uniq compare (List.filter (fun l -> l < nlinks) ls))
             flow_lists)
      in
      let rates = Net.Fairshare.rates ~capacities ~flows in
      let load = Array.make nlinks 0.0 in
      Array.iteri
        (fun i links -> List.iter (fun l -> load.(l) <- load.(l) +. rates.(i)) links)
        flows;
      Array.for_all (fun r -> r >= 0.0) rates
      && Array.for_all2 (fun l c -> l <= c +. 1e-6) load capacities)

let prop_fairshare_bottleneck =
  QCheck.Test.make ~name:"every constrained flow has a saturated link"
    ~count:200
    QCheck.(
      pair
        (array_of_size Gen.(int_range 1 6) (float_range 1.0 50.0))
        (list_of_size Gen.(int_range 1 8) (list_of_size Gen.(int_range 1 3) (int_range 0 5))))
    (fun (capacities, flow_lists) ->
      let nlinks = Array.length capacities in
      let flows =
        Array.of_list
          (List.map
             (fun ls ->
               match List.sort_uniq compare (List.filter (fun l -> l < nlinks) ls) with
               | [] -> [ 0 ]
               | ls -> ls)
             flow_lists)
      in
      let rates = Net.Fairshare.rates ~capacities ~flows in
      let load = Array.make nlinks 0.0 in
      Array.iteri
        (fun i links -> List.iter (fun l -> load.(l) <- load.(l) +. rates.(i)) links)
        flows;
      (* max-min: each flow crosses at least one nearly-saturated link *)
      Array.for_all
        (fun links ->
          List.exists (fun l -> load.(l) >= capacities.(l) -. 1e-6) links)
        flows)

(* ------------------------------------------------------------------ *)
(* Flows                                                                *)
(* ------------------------------------------------------------------ *)

let flow_world () =
  let engine = Engine.create () in
  let topo, a, r, b = three_node_chain () in
  let flows = Net.Flow.create ~engine ~topo () in
  (engine, topo, flows, a, r, b)

let test_flow_completion_time () =
  let engine, _, flows, a, _, b = flow_world () in
  let done_at = ref nan in
  ignore
    (Net.Flow.start flows ~src:a ~dst:b ~bytes:12_500_000
       ~on_complete:(fun stats ->
         done_at := stats.Net.Flow.finished_at));
  run_until_idle engine;
  (* 12.5 MB at 12.5 MB/s bottleneck = 1 s *)
  Alcotest.(check bool) "completes at ~1 s" true
    (Float.abs (!done_at -. 1.0) < 1e-6)

let test_flow_sharing () =
  let engine, _, flows, a, _, b = flow_world () in
  let finished = ref [] in
  for _ = 1 to 2 do
    ignore
      (Net.Flow.start flows ~src:a ~dst:b ~bytes:12_500_000
         ~on_complete:(fun stats ->
           finished := stats.Net.Flow.finished_at :: !finished))
  done;
  run_until_idle engine;
  (* two equal flows share the link: both complete at ~2 s *)
  List.iter
    (fun at -> Alcotest.(check bool) "both at ~2 s" true (Float.abs (at -. 2.0) < 1e-6))
    !finished

let test_flow_rate_rises_after_completion () =
  let engine, _, flows, a, _, b = flow_world () in
  let short_done = ref nan and long_done = ref nan in
  ignore
    (Net.Flow.start flows ~src:a ~dst:b ~bytes:6_250_000
       ~on_complete:(fun s -> short_done := s.Net.Flow.finished_at));
  ignore
    (Net.Flow.start flows ~src:a ~dst:b ~bytes:12_500_000
       ~on_complete:(fun s -> long_done := s.Net.Flow.finished_at));
  run_until_idle engine;
  (* short: 6.25 MB at 6.25 MB/s = 1 s; long: 6.25 MB in the first second
     then 6.25 MB at full rate = 1.5 s total *)
  Alcotest.(check bool) "short at 1 s" true (Float.abs (!short_done -. 1.0) < 1e-6);
  Alcotest.(check bool) "long at 1.5 s" true (Float.abs (!long_done -. 1.5) < 1e-6)

let test_flow_publishes_load () =
  let engine, topo, flows, a, _, b = flow_world () in
  ignore
    (Net.Flow.start flows ~src:a ~dst:b ~bytes:125_000_000
       ~on_complete:(fun _ -> ()));
  Engine.run engine ~until:0.1;
  let first_hop = List.hd (Net.Topology.path topo ~src:a ~dst:b) in
  Alcotest.(check (float 1.0)) "flow load visible to packets" 12.5e6
    first_hop.Net.Link.flow_load

let test_flow_abort () =
  let engine, _, flows, a, _, b = flow_world () in
  let fired = ref false in
  let id =
    Net.Flow.start flows ~src:a ~dst:b ~bytes:125_000_000
      ~on_complete:(fun _ -> fired := true)
  in
  Engine.run engine ~until:0.1;
  Alcotest.(check bool) "abort finds it" true (Net.Flow.abort flows ~flow_id:id);
  Alcotest.(check bool) "gone" false (Net.Flow.abort flows ~flow_id:id);
  run_until_idle engine;
  Alcotest.(check bool) "callback suppressed" false !fired

let test_flow_chained_callbacks () =
  let engine, _, flows, a, _, b = flow_world () in
  let second_done = ref nan in
  ignore
    (Net.Flow.start flows ~src:a ~dst:b ~bytes:12_500_000
       ~on_complete:(fun _ ->
         ignore
           (Net.Flow.start flows ~src:a ~dst:b ~bytes:12_500_000
              ~on_complete:(fun s -> second_done := s.Net.Flow.finished_at))));
  run_until_idle engine;
  Alcotest.(check bool) "sequential transfers" true
    (Float.abs (!second_done -. 2.0) < 1e-6)

let test_flow_local () =
  let engine, _, flows, a, _, _ = flow_world () in
  let done_ = ref false in
  ignore
    (Net.Flow.start flows ~src:a ~dst:a ~bytes:1_000_000
       ~on_complete:(fun _ -> done_ := true));
  run_until_idle engine;
  Alcotest.(check bool) "local transfer completes" true !done_

let prop_flow_conservation =
  QCheck.Test.make ~name:"every started flow delivers exactly its bytes"
    ~count:60
    QCheck.(list_of_size Gen.(int_range 1 12) (int_range 1 5_000_000))
    (fun sizes ->
      let engine = Engine.create () in
      let topo, a, _, b = three_node_chain () in
      let flows = Net.Flow.create ~engine ~topo () in
      let delivered = ref 0.0 in
      let completions = ref 0 in
      Net.Flow.set_progress_hook flows
        (Some (fun ~src:_ ~dst:_ bytes -> delivered := !delivered +. bytes));
      List.iter
        (fun bytes ->
          ignore
            (Net.Flow.start flows ~src:a ~dst:b ~bytes
               ~on_complete:(fun stats ->
                 incr completions;
                 if stats.Net.Flow.bytes <> bytes then completions := -1000)))
        sizes;
      run_until_idle engine;
      (* progress-hook bytes match the requested total within the banked
         rounding (one byte per flow), and every flow completed once *)
      let total = float_of_int (List.fold_left ( + ) 0 sizes) in
      !completions = List.length sizes
      && Float.abs (!delivered -. total) <= float_of_int (List.length sizes))

(* ------------------------------------------------------------------ *)
(* UDP / ICMP delivery                                                  *)
(* ------------------------------------------------------------------ *)

let stack_world () =
  let engine = Engine.create () in
  let rng = Smart_util.Prng.create ~seed:5 in
  let topo, a, r, b = three_node_chain () in
  let stack = Net.Netstack.create ~engine ~topo ~rng () in
  (engine, stack, a, r, b)

let test_udp_delivery () =
  let engine, stack, a, _, b = stack_world () in
  let got = ref None in
  Net.Netstack.listen_udp stack ~node:b ~port:7 (fun ~now pkt ->
      got := Some (now, pkt.Net.Packet.payload));
  ignore
    (Net.Netstack.send_udp stack ~src:a ~dst:b ~sport:9 ~dport:7 ~size:11
       ~payload:"hello world");
  Engine.run engine ~until:1.0;
  match !got with
  | Some (at, payload) ->
    Alcotest.(check string) "payload intact" "hello world" payload;
    Alcotest.(check bool) "took transit time" true (at > 0.0002 && at < 0.01)
  | None -> Alcotest.fail "datagram not delivered"

let test_icmp_port_unreachable () =
  let engine, stack, a, _, b = stack_world () in
  let got = ref None in
  Net.Netstack.on_icmp stack ~node:a (fun ~now:_ pkt ->
      got := Some pkt.Net.Packet.proto);
  let id =
    Net.Netstack.send_udp stack ~src:a ~dst:b ~sport:9 ~dport:33434 ~size:64
  in
  Engine.run engine ~until:1.0;
  match !got with
  | Some (Net.Packet.Icmp (Net.Packet.Port_unreachable { orig_id; orig_dport }))
    ->
    Alcotest.(check int) "original id echoed" id orig_id;
    Alcotest.(check int) "original dport" 33434 orig_dport
  | _ -> Alcotest.fail "expected port unreachable"

let test_local_delivery () =
  let engine, stack, a, _, _ = stack_world () in
  let got = ref false in
  Net.Netstack.listen_udp stack ~node:a ~port:7 (fun ~now:_ _ -> got := true);
  ignore (Net.Netstack.send_udp stack ~src:a ~dst:a ~sport:9 ~dport:7 ~size:32);
  Engine.run engine ~until:1.0;
  Alcotest.(check bool) "loopback delivery" true !got

let test_large_datagram_fragments () =
  let engine, stack, a, _, b = stack_world () in
  let count = ref 0 in
  Net.Netstack.listen_udp stack ~node:b ~port:7 (fun ~now:_ _ -> incr count);
  ignore (Net.Netstack.send_udp stack ~src:a ~dst:b ~sport:9 ~dport:7 ~size:6000);
  Engine.run engine ~until:1.0;
  Alcotest.(check int) "reassembled exactly once" 1 !count

let test_byte_hook () =
  let engine, stack, a, _, b = stack_world () in
  let counted = ref 0 in
  Net.Netstack.set_byte_hook stack
    (Some (fun ~src:_ ~dst:_ bytes -> counted := !counted + bytes));
  Net.Netstack.listen_udp stack ~node:b ~port:7 (fun ~now:_ _ -> ());
  ignore (Net.Netstack.send_udp stack ~src:a ~dst:b ~sport:9 ~dport:7 ~size:1000);
  Engine.run engine ~until:1.0;
  (* 1000 + 8 payload over 2 hops with an IP header per fragment *)
  Alcotest.(check int) "wire bytes counted" (2 * (1000 + 8 + 20)) !counted

let test_unlisten () =
  let engine, stack, a, _, b = stack_world () in
  let icmp = ref false in
  Net.Netstack.listen_udp stack ~node:b ~port:7 (fun ~now:_ _ -> ());
  Net.Netstack.unlisten_udp stack ~node:b ~port:7;
  Net.Netstack.on_icmp stack ~node:a (fun ~now:_ _ -> icmp := true);
  ignore (Net.Netstack.send_udp stack ~src:a ~dst:b ~sport:9 ~dport:7 ~size:10);
  Engine.run engine ~until:1.0;
  Alcotest.(check bool) "closed port bounces" true !icmp

(* cross traffic shrinks the residual rate and slows large probes *)
let test_cross_traffic_slows_probes () =
  let _, stack, a, _, b = stack_world () in
  let topo = Net.Netstack.topology stack in
  let rtt () =
    match
      Smart_measure.Rtt_probe.ping ~count:1 ~size:1400 stack ~src:a ~dst:b ()
    with
    | Some r -> r
    | None -> Alcotest.fail "probe lost"
  in
  let quiet = rtt () in
  List.iter
    (fun (chan : Net.Link.t) -> Net.Link.set_cross_load chan (0.9 *. 12.5e6))
    (Net.Topology.path topo ~src:a ~dst:b);
  let loaded = rtt () in
  Alcotest.(check bool) "load raises delay" true (loaded > quiet)

(* the bursty generator starts at its off level and switches on *)
let test_cross_traffic_generator () =
  let engine, stack, a, _, b = stack_world () in
  let topo = Net.Netstack.topology stack in
  let chan = List.hd (Net.Topology.path topo ~src:a ~dst:b) in
  Net.Cross_traffic.bursty ~engine ~rng:(Smart_util.Prng.create ~seed:2)
    ~chan ~on_load:5e6 ~off_load:1e6 ~p_on:1.0 ();
  Alcotest.(check (float 1.0)) "off until the first period" 1e6
    chan.Net.Link.cross_load;
  Engine.run engine ~until:1.0;
  Alcotest.(check (float 1.0)) "on after it" 5e6 chan.Net.Link.cross_load

let () =
  Alcotest.run "smart_net"
    [
      ( "topology",
        [
          Alcotest.test_case "resolve" `Quick test_resolve;
          Alcotest.test_case "duplicate node" `Quick test_duplicate_node;
          Alcotest.test_case "path chain" `Quick test_path_chain;
          Alcotest.test_case "no route" `Quick test_no_route;
          Alcotest.test_case "shortest path" `Quick test_shortest_path;
        ] );
      ( "fragmentation",
        [ Alcotest.test_case "sizes" `Quick test_fragment_sizes ] );
      ( "link",
        [
          Alcotest.test_case "serialization" `Quick test_link_serialization;
          Alcotest.test_case "FIFO queueing" `Quick test_link_fifo;
          Alcotest.test_case "residual under load" `Quick
            test_link_residual_under_load;
          Alcotest.test_case "loss" `Quick test_link_loss;
          Alcotest.test_case "shaper clamps flows only" `Quick
            test_capacity_for_flows_shaped;
        ] );
      ( "shaper",
        [
          Alcotest.test_case "burst then drain" `Quick
            test_shaper_burst_then_drain;
          Alcotest.test_case "refill cap" `Quick test_shaper_refill_cap;
          Alcotest.test_case "long-run rate" `Quick test_shaper_long_run_rate;
        ] );
      ( "fairshare",
        [
          Alcotest.test_case "single link" `Quick test_fairshare_single_link;
          Alcotest.test_case "water filling" `Quick test_fairshare_water_filling;
          Alcotest.test_case "unequal bottlenecks" `Quick
            test_fairshare_unequal_bottlenecks;
          Alcotest.test_case "empty path" `Quick test_fairshare_empty_path;
        ] );
      ( "flow",
        [
          Alcotest.test_case "completion time" `Quick test_flow_completion_time;
          Alcotest.test_case "equal sharing" `Quick test_flow_sharing;
          Alcotest.test_case "rate rises after completion" `Quick
            test_flow_rate_rises_after_completion;
          Alcotest.test_case "publishes load" `Quick test_flow_publishes_load;
          Alcotest.test_case "abort" `Quick test_flow_abort;
          Alcotest.test_case "chained callbacks" `Quick
            test_flow_chained_callbacks;
          Alcotest.test_case "node-local" `Quick test_flow_local;
        ] );
      ( "udp/icmp",
        [
          Alcotest.test_case "delivery" `Quick test_udp_delivery;
          Alcotest.test_case "port unreachable" `Quick
            test_icmp_port_unreachable;
          Alcotest.test_case "loopback" `Quick test_local_delivery;
          Alcotest.test_case "fragment reassembly" `Quick
            test_large_datagram_fragments;
          Alcotest.test_case "byte hook" `Quick test_byte_hook;
          Alcotest.test_case "unlisten bounces" `Quick test_unlisten;
          Alcotest.test_case "cross traffic slows probes" `Quick
            test_cross_traffic_slows_probes;
          Alcotest.test_case "cross traffic generator" `Quick
            test_cross_traffic_generator;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_fragments_conserve_bytes;
            prop_fairshare_feasible;
            prop_fairshare_bottleneck;
            prop_flow_conservation;
          ] );
    ]
