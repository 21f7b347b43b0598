(* RTT-vs-payload-size sweep (the experiment behind Figs 3.3-3.6).

   A UDP datagram of each payload size is sent to an unopened port; the
   ICMP port-unreachable echo timestamps the round trip.  The probe port
   33434 is never listened on, mirroring the traceroute convention. *)

let probe_dport = 33434
let probe_sport = 40000

type sample = { payload : int; rtt : float }

type sweep_result = {
  src : int;
  dst : int;
  samples : sample list;
  lost : int;
}

let sweep ?(min_size = 1) ?(max_size = 6000) ?(step = 10) stack ~src ~dst () =
  let gap = 0.02 and timeout = 5.0 in
  let engine = Smart_net.Netstack.engine stack in
  let sent : (int, int * float) Hashtbl.t = Hashtbl.create 512 in
  (* datagram id -> (payload, send time) *)
  let samples = ref [] in
  let received = ref 0 in
  let expected = ref 0 in
  Smart_net.Netstack.on_icmp stack ~node:src (fun ~now pkt ->
      match pkt.Smart_net.Packet.proto with
      | Smart_net.Packet.Icmp
          (Smart_net.Packet.Port_unreachable { orig_id; orig_dport })
        when orig_dport = probe_dport ->
        (match Hashtbl.find_opt sent orig_id with
        | Some (payload, at) ->
          Hashtbl.remove sent orig_id;
          incr received;
          samples := { payload; rtt = now -. at } :: !samples
        | None -> ())
      | _ -> ());
  let start = Smart_sim.Engine.now engine in
  let sizes =
    let rec build s acc = if s > max_size then List.rev acc else build (s + step) (s :: acc) in
    build min_size []
  in
  List.iteri
    (fun i size ->
      incr expected;
      ignore
        (Smart_sim.Engine.schedule_at engine
           ~time:(start +. (float_of_int i *. gap))
           (fun () ->
             let id =
               Smart_net.Netstack.send_udp stack ~src ~dst ~sport:probe_sport
                 ~dport:probe_dport ~size
             in
             Hashtbl.replace sent id (size, Smart_sim.Engine.now engine))))
    sizes;
  let deadline =
    start +. (float_of_int (List.length sizes) *. gap) +. timeout
  in
  ignore
    (Runner.run_until engine ~deadline (fun () -> !received >= !expected));
  let samples =
    List.sort (fun a b -> compare a.payload b.payload) !samples
  in
  { src; dst; samples; lost = !expected - !received }

(* Fit the two-slope model of Formula (3.6) to a sweep: returns the knee
   location (≈ MTU) and the bandwidth implied by each slope. *)
type knee_analysis = {
  knee_bytes : float;
  slope_below : float;  (* seconds per byte *)
  slope_above : float;
  bw_below : float;     (* bytes/second implied by 1/slope *)
  bw_above : float;
  significant : bool;
      (* observations 1 and 4 of §3.3.2: on virtual interfaces or paths
         whose RTT variation dwarfs the init cost, no knee is visible *)
}

let analyze result =
  let xs = Array.of_list (List.map (fun s -> float_of_int s.payload) result.samples) in
  let ys = Array.of_list (List.map (fun s -> s.rtt) result.samples) in
  let fit = Smart_util.Stats.knee_fit ~xs ~ys in
  let bw slope = if slope > 0.0 then 1.0 /. slope else Float.infinity in
  let below = fit.Smart_util.Stats.below.Smart_util.Stats.slope in
  let above = fit.Smart_util.Stats.above.Smart_util.Stats.slope in
  {
    knee_bytes = fit.Smart_util.Stats.break_x;
    slope_below = below;
    slope_above = above;
    bw_below = bw below;
    bw_above = bw above;
    significant =
      below > 0.0 && above > 0.0
      && below > 1.5 *. above
      && fit.Smart_util.Stats.below.Smart_util.Stats.r2 > 0.7;
  }

(* Small-payload ping-like RTT: median round trip of [count] minimal
   datagrams (used for the Table 3.2 "RTT by ping" column and by the
   network monitor's delay metric). *)
let ping ?(count = 5) ?(gap = 0.05) ?(timeout = 5.0) ?(size = 56) stack ~src
    ~dst () =
  let engine = Smart_net.Netstack.engine stack in
  let sent : (int, float) Hashtbl.t = Hashtbl.create 8 in
  let rtts = ref [] in
  Smart_net.Netstack.on_icmp stack ~node:src (fun ~now pkt ->
      match pkt.Smart_net.Packet.proto with
      | Smart_net.Packet.Icmp
          (Smart_net.Packet.Port_unreachable { orig_id; orig_dport })
        when orig_dport = probe_dport ->
        (match Hashtbl.find_opt sent orig_id with
        | Some at ->
          Hashtbl.remove sent orig_id;
          rtts := (now -. at) :: !rtts
        | None -> ())
      | _ -> ());
  let start = Smart_sim.Engine.now engine in
  for i = 0 to count - 1 do
    ignore
      (Smart_sim.Engine.schedule_at engine
         ~time:(start +. (float_of_int i *. gap))
         (fun () ->
           let id =
             Smart_net.Netstack.send_udp stack ~src ~dst ~sport:probe_sport
               ~dport:probe_dport ~size
           in
           Hashtbl.replace sent id (Smart_sim.Engine.now engine)))
  done;
  let deadline = start +. (float_of_int count *. gap) +. timeout in
  ignore
    (Runner.run_until engine ~deadline (fun () ->
         List.length !rtts >= count));
  match !rtts with
  | [] -> None
  | rtts -> Some (Smart_util.Stats.median (Array.of_list rtts))
