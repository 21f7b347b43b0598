(* Figures 3.3-3.6 and Table 3.2: RTT-vs-payload sweeps exposing the MTU
   knee, on the sagit->suna path at three MTU settings and on the six
   wide-area sample paths. *)

type sweep_report = {
  label : string;
  mtu : int;
  samples : Smart_measure.Rtt_probe.sample list;
  knee : Smart_measure.Rtt_probe.knee_analysis option;
  ping : float option;
  paper_ping : float option;
  lost : int;
}

(* Fig 3.3/3.4/3.5: sagit -> suna with the interface MTU at 1500, 1000
   and 500 bytes.  The knee should track the MTU. *)
let mtu_sweeps ?(mtus = [ 1500; 1000; 500 ]) ?(max_size = 6000) () =
  List.map
    (fun mtu ->
      let fixture = Smart_host.Testbed.paths ~sagit_mtu:mtu () in
      let stack = Smart_host.Cluster.stack fixture.Smart_host.Testbed.cluster in
      let src = fixture.Smart_host.Testbed.sagit in
      let dst = fixture.Smart_host.Testbed.suna in
      let sweep =
        Smart_measure.Rtt_probe.sweep ~min_size:1 ~max_size stack ~src ~dst ()
      in
      let knee =
        try Some (Smart_measure.Rtt_probe.analyze sweep) with
        | Invalid_argument _ -> None
      in
      {
        label = Printf.sprintf "sagit->suna MTU=%d" mtu;
        mtu;
        samples = sweep.Smart_measure.Rtt_probe.samples;
        knee;
        ping = None;
        paper_ping = None;
        lost = sweep.Smart_measure.Rtt_probe.lost;
      })
    mtus

(* Fig 3.6 / Table 3.2: the six sample network paths. *)
let sample_paths ?(max_size = 6000) ?(step = 50) () =
  let fixture = Smart_host.Testbed.paths () in
  let stack = Smart_host.Cluster.stack fixture.Smart_host.Testbed.cluster in
  List.map
    (fun (p : Smart_host.Testbed.rtt_path) ->
      let src = p.Smart_host.Testbed.src and dst = p.Smart_host.Testbed.dst in
      let ping = Smart_measure.Rtt_probe.ping ~count:5 stack ~src ~dst () in
      let sweep =
        Smart_measure.Rtt_probe.sweep ~min_size:1 ~max_size ~step stack ~src
          ~dst ()
      in
      let knee =
        try Some (Smart_measure.Rtt_probe.analyze sweep) with
        | Invalid_argument _ -> None
      in
      {
        label =
          Printf.sprintf "%s: %s" p.Smart_host.Testbed.label
            p.Smart_host.Testbed.description;
        mtu = 1500;
        samples = sweep.Smart_measure.Rtt_probe.samples;
        knee;
        ping;
        paper_ping = Some p.Smart_host.Testbed.ping_rtt;
        lost = sweep.Smart_measure.Rtt_probe.lost;
      })
    fixture.Smart_host.Testbed.paths

(* Compact ASCII rendering of one sweep: RTT at decile payloads, plus the
   detected knee. *)
let print_sweep (r : sweep_report) =
  let tab =
    Smart_util.Tabular.create ~title:r.label
      ~header:[ "payload (B)"; "RTT" ]
  in
  let samples = Array.of_list r.samples in
  let n = Array.length samples in
  if n > 0 then begin
    let idx = [ 0; n / 8; n / 4; 3 * n / 8; n / 2; 5 * n / 8; 3 * n / 4; 7 * n / 8; n - 1 ] in
    List.iter
      (fun i ->
        let s = samples.(i) in
        Smart_util.Tabular.add_row tab
          [
            string_of_int s.Smart_measure.Rtt_probe.payload;
            Fmt.str "%a" Smart_util.Units.pp_time s.Smart_measure.Rtt_probe.rtt;
          ])
      (List.sort_uniq compare idx)
  end;
  Smart_util.Tabular.print tab;
  (match r.knee with
  | Some k when k.Smart_measure.Rtt_probe.significant ->
    Fmt.pr
      "  knee ~ %.0f B (MTU %d); slope-bandwidth below %.1f Mbps, above %.1f \
       Mbps@."
      k.Smart_measure.Rtt_probe.knee_bytes r.mtu
      (Smart_util.Units.bytes_per_sec_to_mbps
         k.Smart_measure.Rtt_probe.bw_below)
      (Smart_util.Units.bytes_per_sec_to_mbps
         k.Smart_measure.Rtt_probe.bw_above)
  | Some _ ->
    Fmt.pr
      "  no significant knee (virtual interface or jitter-shadowed, \
       observations 1/4 of §3.3.2)@."
  | None -> Fmt.pr "  knee: not detectable@.");
  (match (r.ping, r.paper_ping) with
  | Some p, Some paper ->
    Fmt.pr "  ping: measured %a, thesis %a@." Smart_util.Units.pp_time p
      Smart_util.Units.pp_time paper
  | _ -> ());
  Fmt.pr "@."
