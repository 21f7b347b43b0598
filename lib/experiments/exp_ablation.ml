(* Ablations of the design choices DESIGN.md §5 calls out:

   1. interface-initialisation cost (Speed_init): with it, sub-MTU
      probes under-estimate and the RTT knee exists; without it (virtual
      interface), both effects disappear — validating Formula (3.6)'s
      explanation of Fig 3.7;
   2. probe spacing through a shaper: back-to-back pairs start with
      unequal token buckets and mis-read the bandwidth, spaced pairs
      read the shaped rate — the constant-overhead assumption behind
      Formula (3.5);
   3. transmitter mode: centralized push keeps the wizard fresh at a
      standing network cost, distributed pull trades standing bytes for
      request latency (§3.5.1's motivation);
   4. staleness threshold (3 missed intervals in §4.1): smaller
      thresholds detect failures faster but falsely expire servers when
      report datagrams are lost. *)

let mbps = Smart_util.Units.bytes_per_sec_to_mbps

(* ------------------------------------------------------------------ *)
(* 1. Speed_init ablation                                               *)
(* ------------------------------------------------------------------ *)

type init_row = {
  nic_kind : string;
  sub_mtu_bw : float;   (* Mbps measured with 100~1000 probes *)
  super_mtu_bw : float; (* Mbps measured with 1600~2900 probes *)
  knee_significant : bool;
}

let init_speed_ablation ?(trials = 6) () =
  List.map
    (fun (nic_kind, sagit_virtual) ->
      let f = Smart_host.Testbed.paths ~sagit_virtual () in
      let stack = Smart_host.Cluster.stack f.Smart_host.Testbed.cluster in
      let src = f.Smart_host.Testbed.sagit in
      let dst = f.Smart_host.Testbed.suna in
      let measure s1 s2 =
        match
          Smart_measure.Udp_stream.measure ~s1 ~s2 ~trials stack ~src ~dst ()
        with
        | Some r -> mbps r.Smart_measure.Udp_stream.avg_bw
        | None -> nan
      in
      let sweep =
        Smart_measure.Rtt_probe.sweep ~min_size:100 ~max_size:4500 ~step:100
          stack ~src ~dst ()
      in
      let knee = Smart_measure.Rtt_probe.analyze sweep in
      {
        nic_kind;
        sub_mtu_bw = measure 100 1000;
        super_mtu_bw = measure 1600 2900;
        knee_significant = knee.Smart_measure.Rtt_probe.significant;
      })
    [
      ("physical (Speed_init = 25 Mbps)", false);
      ("virtual (no init cost)", true);
    ]

let print_init_speed rows =
  let tab =
    Smart_util.Tabular.create
      ~title:"ablation 1: interface initialisation cost"
      ~header:
        [ "interface"; "100~1000 probes (Mbps)"; "1600~2900 (Mbps)"; "knee?" ]
  in
  List.iter
    (fun r ->
      Smart_util.Tabular.add_row tab
        [
          r.nic_kind;
          Fmt.str "%.1f" r.sub_mtu_bw;
          Fmt.str "%.1f" r.super_mtu_bw;
          (if r.knee_significant then "yes" else "no");
        ])
    rows;
  Smart_util.Tabular.print tab;
  Fmt.pr
    "  note: removing the init cost recovers much of the sub-MTU estimate;\n\
    \  the residue is store-and-forward per hop, which single-fragment\n\
    \  probes pay on every link while multi-fragment streams pipeline —\n\
    \  a second reason to probe with S > MTU that Formula (3.6) absorbs\n\
    \  into Overhead_net.@.@."

(* ------------------------------------------------------------------ *)
(* 2. probe spacing through a shaper                                    *)
(* ------------------------------------------------------------------ *)

type spacing_row = {
  spacing : string;
  measured_mbps : float;
  truth_mbps : float;
}

(* Against a suna access link shaped to 2 Mbps. *)
let spacing_ablation () =
  let truth = 2.0 in
  List.map
    (fun (spacing, gap, inter_trial_gap) ->
      let f = Smart_host.Testbed.paths () in
      let c = f.Smart_host.Testbed.cluster in
      ignore
        (Smart_host.Cluster.shape_access c ~node:f.Smart_host.Testbed.suna
           ~rate_bytes_per_sec:
             (Some (Smart_util.Units.mbps_to_bytes_per_sec truth)));
      let stack = Smart_host.Cluster.stack c in
      let engine = Smart_host.Cluster.engine c in
      let results = ref [] in
      for _ = 1 to 6 do
        (match
           Smart_measure.Udp_stream.probe_pair ~gap stack
             ~src:f.Smart_host.Testbed.sagit ~dst:f.Smart_host.Testbed.suna
             ~s1:1600 ~s2:2900 ()
         with
        | Some tr -> results := tr.Smart_measure.Udp_stream.bw :: !results
        | None -> ());
        Smart_sim.Engine.run engine
          ~until:(Smart_sim.Engine.now engine +. inter_trial_gap)
      done;
      let measured =
        match !results with
        | [] -> nan
        | bws -> Smart_util.Stats.mean (Array.of_list bws)
      in
      { spacing; measured_mbps = mbps measured; truth_mbps = truth })
    [
      ("back-to-back (no settle)", 0.0, 0.0);
      ("spaced (50 ms + 300 ms settle)", 0.05, 0.3);
    ]

let print_spacing rows =
  let tab =
    Smart_util.Tabular.create
      ~title:"ablation 2: probe spacing through a 2 Mbps shaper"
      ~header:[ "spacing"; "measured (Mbps)"; "truth (Mbps)" ]
  in
  List.iter
    (fun r ->
      Smart_util.Tabular.add_row tab
        [ r.spacing; Fmt.str "%.2f" r.measured_mbps; Fmt.str "%.2f" r.truth_mbps ])
    rows;
  Smart_util.Tabular.print tab

(* ------------------------------------------------------------------ *)
(* 3. transmitter mode                                                  *)
(* ------------------------------------------------------------------ *)

type mode_row = {
  mode : string;
  standing_kBps : float;       (* transmitter bytes over an idle minute *)
  request_latency_ms : float;  (* request round trip, virtual time *)
}

let mode_ablation () =
  List.map
    (fun (mode_name, mode) ->
      let c = Smart_host.Testbed.icpp2005 () in
      let d =
        Smart_core.Simdriver.deploy
          ~config:{ Smart_core.Simdriver.default_config with Smart_core.Simdriver.mode }
          c ~monitor:"dalmatian" ~wizard_host:"dalmatian"
          ~servers:Smart_host.Testbed.machine_names
      in
      Smart_core.Simdriver.settle ~duration:4.0 d;
      let pushed () =
        Smart_util.Metrics.counter_value (Smart_core.Simdriver.metrics d)
          "transmitter.bytes_total"
      in
      let bytes0 = pushed () in
      let t0 = Smart_host.Cluster.now c in
      Smart_core.Simdriver.settle ~duration:60.0 d;
      let bytes1 = pushed () in
      let standing_kBps =
        float_of_int (bytes1 - bytes0)
        /. 1024.0
        /. (Smart_host.Cluster.now c -. t0)
      in
      let before = Smart_host.Cluster.now c in
      (match
         Smart_core.Simdriver.request d ~client:"sagit" ~wanted:2
           ~requirement:"host_cpu_bogomips > 4000\n"
       with
      | Ok _ -> ()
      | Error e ->
        failwith (Fmt.str "mode ablation request: %a" Smart_core.Client.pp_error e));
      let latency = Smart_host.Cluster.now c -. before in
      {
        mode = mode_name;
        standing_kBps;
        request_latency_ms = Smart_util.Units.s_to_ms latency;
      })
    [
      ("centralized (push)", Smart_core.Transmitter.Centralized);
      ("distributed (pull)", Smart_core.Transmitter.Distributed);
    ]

let print_modes rows =
  let tab =
    Smart_util.Tabular.create
      ~title:"ablation 3: centralized push vs distributed pull"
      ~header:[ "mode"; "standing transmitter KB/s"; "request latency (ms)" ]
  in
  List.iter
    (fun r ->
      Smart_util.Tabular.add_row tab
        [
          r.mode;
          Fmt.str "%.2f" r.standing_kBps;
          Fmt.str "%.1f" r.request_latency_ms;
        ])
    rows;
  Smart_util.Tabular.print tab

(* ------------------------------------------------------------------ *)
(* 4. staleness threshold                                               *)
(* ------------------------------------------------------------------ *)

type staleness_row = {
  missed_intervals : int;
  detection_s : float;     (* time to expire a really dead server *)
  false_expiries : int;    (* spurious expiries under 15% report loss *)
}

(* Drive a sysmon directly: one probe reporting every [interval] with
   per-report [loss], failing for good at [fail_at], until [horizon].
   Measures how long the monitor takes to notice the real failure and
   how often it falsely expires the live server beforehand. *)
let staleness_ablation () =
  let loss = 0.15 and interval = 2.0 and fail_at = 600.0 and horizon = 700.0 in
  let report =
    Smart_proto.Report.to_string
      {
        Smart_proto.Report.host = "srv";
        ip = "10.0.0.1";
        load1 = 0.0; load5 = 0.0; load15 = 0.0;
        cpu_user = 0.0; cpu_nice = 0.0; cpu_system = 0.0; cpu_free = 1.0;
        bogomips = 1000.0;
        mem_total = 128.0; mem_used = 64.0; mem_free = 64.0;
        mem_buffers = 8.0; mem_cached = 16.0;
        disk_rreq = 0.0; disk_rblocks = 0.0; disk_wreq = 0.0;
        disk_wblocks = 0.0;
        net_rbytes = 0.0; net_rpackets = 0.0; net_tbytes = 0.0;
        net_tpackets = 0.0;
      }
  in
  List.map
    (fun missed_intervals ->
      let rng = Smart_util.Prng.create ~seed:(1000 + missed_intervals) in
      let db = Smart_core.Status_db.create () in
      let sysmon =
        Smart_core.Sysmon.create
          ~config:
            { Smart_core.Sysmon.probe_interval = interval; missed_intervals }
          db
      in
      let false_expiries = ref 0 in
      let was_present = ref false in
      let detection = ref infinity in
      let t = ref 0.0 in
      while !t < horizon do
        (* the probe reports (when alive and the datagram survives) *)
        if !t < fail_at && Smart_util.Prng.float rng ~bound:1.0 >= loss then
          ignore (Smart_core.Sysmon.handle_report sysmon ~now:!t report);
        (* the monitor sweeps once per interval *)
        ignore (Smart_core.Sysmon.sweep sysmon ~now:!t);
        let present = Smart_core.Status_db.find_sys db ~host:"srv" <> None in
        if !t < fail_at then begin
          if !was_present && not present then incr false_expiries
        end
        else if (not present) && !detection = infinity then
          detection := !t -. fail_at;
        was_present := present;
        t := !t +. interval
      done;
      {
        missed_intervals;
        detection_s = !detection;
        false_expiries = !false_expiries;
      })
    [ 1; 2; 3; 5; 10 ]

let print_staleness rows =
  let tab =
    Smart_util.Tabular.create
      ~title:
        "ablation 4: staleness threshold under 15% report loss (2 s interval)"
      ~header:
        [ "missed intervals"; "failure detection (s)"; "false expiries / 10 min" ]
  in
  List.iter
    (fun r ->
      Smart_util.Tabular.add_row tab
        [
          string_of_int r.missed_intervals;
          Fmt.str "%.1f" r.detection_s;
          string_of_int r.false_expiries;
        ])
    rows;
  Smart_util.Tabular.print tab
