(* Packet-pair capacity estimator (the `pipechar` baseline of §2.1).

   Two equal, MTU-sized datagrams leave back to back; the bottleneck link
   spreads them by its serialisation time, so the gap between their ICMP
   echoes estimates  capacity ≈ wire_size / gap.  As the thesis notes,
   the method is "very flexible but less robust to network delay
   fluctuations": one jitter sample larger than the gap ruins a trial,
   which our implementation (and Table 3.3's pipechar row) exhibits on
   the high-jitter paths. *)

type trial = { gap : float; bw : float }

type result = {
  trials : trial list;
  median_bw : float;
  failures : int;
  reliability : float;  (* fraction of trials that produced a gap > 0 *)
}

(* MTU-sized probes (1472 payload bytes); a pair's echoes get 10 s, and
   pairs leave 50 ms apart. *)
let size = 1472

let timeout = 10.0

let gap = 0.05

let probe_once stack ~src ~dst =
  let engine = Smart_net.Netstack.engine stack in
  let sent : (int, int) Hashtbl.t = Hashtbl.create 4 in
  (* datagram id -> pair index (0 = leader, 1 = trailer) *)
  let arrivals = Array.make 2 None in
  let count = ref 0 in
  Smart_net.Netstack.on_icmp stack ~node:src (fun ~now pkt ->
      match pkt.Smart_net.Packet.proto with
      | Smart_net.Packet.Icmp
          (Smart_net.Packet.Port_unreachable { orig_id; orig_dport })
        when orig_dport = Rtt_probe.probe_dport ->
        (match Hashtbl.find_opt sent orig_id with
        | Some idx ->
          Hashtbl.remove sent orig_id;
          arrivals.(idx) <- Some now;
          incr count
        | None -> ())
      | _ -> ());
  let send idx =
    let id =
      Smart_net.Netstack.send_udp stack ~src ~dst
        ~sport:Rtt_probe.probe_sport ~dport:Rtt_probe.probe_dport ~size
    in
    Hashtbl.replace sent id idx
  in
  send 0;
  send 1;
  let deadline = Smart_sim.Engine.now engine +. timeout in
  ignore (Runner.run_until engine ~deadline (fun () -> !count >= 2));
  match (arrivals.(0), arrivals.(1)) with
  | Some a, Some b when b > a ->
    let wire = size + Smart_net.Netstack.udp_header + Smart_net.Netstack.ip_header in
    Some { gap = b -. a; bw = float_of_int wire /. (b -. a) }
  | _ -> None

let measure ?(trials = 20) stack ~src ~dst () =
  let engine = Smart_net.Netstack.engine stack in
  let ok = ref [] in
  let failures = ref 0 in
  for _ = 1 to trials do
    (match probe_once stack ~src ~dst with
    | Some tr -> ok := tr :: !ok
    | None -> incr failures);
    Smart_sim.Engine.run engine ~until:(Smart_sim.Engine.now engine +. gap)
  done;
  match !ok with
  | [] -> None
  | trs ->
    let bws = Array.of_list (List.map (fun tr -> tr.bw) trs) in
    Some
      {
        trials = List.rev trs;
        median_bw = Smart_util.Stats.median bws;
        failures = !failures;
        reliability =
          float_of_int (List.length trs) /. float_of_int trials;
      }
