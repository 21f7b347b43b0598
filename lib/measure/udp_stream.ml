(* The paper's one-way UDP stream bandwidth estimator (§3.3.2).

   Two datagrams of sizes S1 < S2 are sent back to back to an unopened
   port; their ICMP-echo round-trip times T1, T2 satisfy Formula (3.4),
   so the constant system/network overheads cancel in
       B = (S2 - S1) / (T2 - T1)                      (Formula 3.5)
   provided both sizes exceed the MTU; otherwise the interface
   initialisation speed contaminates the slope and B is under-estimated
   (Formula 3.7) — Table 3.3 quantifies this. *)

let default_s1 = 1600
let default_s2 = 2900

type trial = { s1 : int; s2 : int; t1 : float; t2 : float; bw : float }

type result = {
  trials : trial list;
  min_bw : float;
  max_bw : float;
  avg_bw : float;
  failures : int;
}

(* One (S1, S2) probe pair, sequential as the thesis prescribes: the
   second datagram leaves only after the first echo returned (or timed
   out), and a settling gap separates the two streams so a token-bucket
   shaper on the path is equally refilled for both probes — otherwise
   the "constant overhead" assumption behind Formula (3.5) breaks. *)
let probe_pair ?(gap = 0.05) stack ~src ~dst ~s1 ~s2 () =
  let engine = Smart_net.Netstack.engine stack in
  let rtt size =
    Rtt_probe.ping ~count:1 ~gap:0.0 ~timeout:10.0 ~size stack ~src ~dst ()
  in
  let t1 = rtt s1 in
  Smart_sim.Engine.run engine ~until:(Smart_sim.Engine.now engine +. gap);
  let t2 = rtt s2 in
  match (t1, t2) with
  | Some t1, Some t2 when t2 > t1 ->
    Some { s1; s2; t1; t2; bw = float_of_int (s2 - s1) /. (t2 -. t1) }
  | _ -> None

let measure ?(s1 = default_s1) ?(s2 = default_s2) ?(trials = 10) stack ~src
    ~dst () =
  if s2 <= s1 then invalid_arg "Udp_stream.measure: need s1 < s2";
  let engine = Smart_net.Netstack.engine stack in
  let results = ref [] in
  let failures = ref 0 in
  for _ = 1 to trials do
    (match probe_pair stack ~src ~dst ~s1 ~s2 () with
    | Some tr -> results := tr :: !results
    | None -> incr failures);
    Smart_sim.Engine.run engine
      ~until:(Smart_sim.Engine.now engine +. 0.3)
  done;
  match !results with
  | [] -> None
  | trs ->
    let bws = Array.of_list (List.map (fun tr -> tr.bw) trs) in
    let min_bw, max_bw = Smart_util.Stats.min_max bws in
    Some
      {
        trials = List.rev trs;
        min_bw;
        max_bw;
        avg_bw = Smart_util.Stats.mean bws;
        failures = !failures;
      }
