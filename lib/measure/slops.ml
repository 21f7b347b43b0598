(* Self-Loading Periodic Streams (the `pathload` baseline of §2.1).

   A stream of K equal packets is sent at rate R.  If R exceeds the
   available bandwidth, a queue builds at the bottleneck and per-packet
   delays trend upward across the stream; otherwise they stay flat.  A
   binary search on R brackets the available bandwidth.  Pathload is
   two-ended and non-intrusive; here the ICMP echo stands in for the
   receiver's timestamps, which is faithful enough for trend detection. *)

type verdict = Increasing | Flat | Inconclusive

type result = {
  low : float;   (* bytes/second bracket *)
  high : float;
  iterations : int;
}

let trend delays =
  let n = Array.length delays in
  if n < 6 then Inconclusive
  else begin
    (* pairwise-comparison test over adjacent samples *)
    let inc = ref 0 in
    for i = 1 to n - 1 do
      if delays.(i) > delays.(i - 1) then incr inc
    done;
    let frac = float_of_int !inc /. float_of_int (n - 1) in
    (* and the stream-wide drift must dominate jitter *)
    let first = Array.sub delays 0 (n / 3) in
    let last = Array.sub delays (n - (n / 3)) (n / 3) in
    let drift = Smart_util.Stats.mean last -. Smart_util.Stats.mean first in
    let noise = Smart_util.Stats.stddev delays in
    if frac > 0.60 && drift > 0.3 *. noise then Increasing
    else if frac < 0.55 then Flat
    else Inconclusive
  end

(* Every packet of a stream carries 1472 payload bytes; the last gets
   10 s to echo. *)
let size = 1472

let timeout = 10.0

(* One stream of [count] packets at [rate] bytes/second; returns the
   per-packet RTTs in send order. *)
let stream ~count stack ~src ~dst ~rate =
  let engine = Smart_net.Netstack.engine stack in
  let wire = size + Smart_net.Netstack.udp_header + Smart_net.Netstack.ip_header in
  let spacing = float_of_int wire /. rate in
  let sent : (int, int * float) Hashtbl.t = Hashtbl.create 64 in
  let rtts = Array.make count nan in
  let received = ref 0 in
  Smart_net.Netstack.on_icmp stack ~node:src (fun ~now pkt ->
      match pkt.Smart_net.Packet.proto with
      | Smart_net.Packet.Icmp
          (Smart_net.Packet.Port_unreachable { orig_id; orig_dport })
        when orig_dport = Rtt_probe.probe_dport ->
        (match Hashtbl.find_opt sent orig_id with
        | Some (idx, at) ->
          Hashtbl.remove sent orig_id;
          rtts.(idx) <- now -. at;
          incr received
        | None -> ())
      | _ -> ());
  let start = Smart_sim.Engine.now engine in
  for i = 0 to count - 1 do
    ignore
      (Smart_sim.Engine.schedule_at engine
         ~time:(start +. (float_of_int i *. spacing))
         (fun () ->
           let id =
             Smart_net.Netstack.send_udp stack ~src ~dst
               ~sport:Rtt_probe.probe_sport ~dport:Rtt_probe.probe_dport
               ~size
           in
           Hashtbl.replace sent id (i, Smart_sim.Engine.now engine)))
  done;
  let deadline = start +. (float_of_int count *. spacing) +. timeout in
  ignore (Runner.run_until engine ~deadline (fun () -> !received >= count));
  Array.of_list
    (List.filter (fun x -> not (Float.is_nan x)) (Array.to_list rtts))

let measure ?(iterations = 10) ?(lo = 0.5e6 /. 8.0) ?(hi = 1e9 /. 8.0)
    ?(count = 30) stack ~src ~dst () =
  let engine = Smart_net.Netstack.engine stack in
  let lo = ref lo and hi = ref hi in
  let done_iters = ref 0 in
  (try
     for _ = 1 to iterations do
       incr done_iters;
       let rate = Float.sqrt (!lo *. !hi) in
       let delays = stream ~count stack ~src ~dst ~rate in
       (* let the bottleneck queue drain before the next stream *)
       Smart_sim.Engine.run engine
         ~until:(Smart_sim.Engine.now engine +. 0.5);
       (match trend delays with
       | Increasing -> hi := rate
       | Flat -> lo := rate
       | Inconclusive -> ());
       if !hi /. !lo < 1.15 then raise Exit
     done
   with Exit -> ());
  { low = !lo; high = !hi; iterations = !done_iters }
