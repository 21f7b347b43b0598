(* Fig 5.3 and Tables 5.7-5.9 / Figs 5.4-5.6: the massive download
   experiments.

   Fig 5.3 calibrates the shaper against massd: for ten (data, blk, bw)
   samples with bw = 1% of data, the achieved throughput must track the
   shaped bandwidth.  The table experiments split six file servers into
   two rshaper-limited groups and compare the thesis's random server sets
   against smart selection with a `monitor_network_bw > X` requirement —
   the bandwidth figure coming from the deployed network monitor probing
   through the very same shapers. *)

let group1 = [ "mimas"; "telesto"; "lhost" ]
let group2 = [ "dione"; "titan-x"; "pandora-x" ]

let mbps_to_Bps = Smart_util.Units.mbps_to_bytes_per_sec
let to_kBps = Smart_util.Units.bytes_per_sec_to_kBps

(* ------------------------------------------------------------------ *)
(* Fig 5.3: rshaper vs massd calibration                                *)
(* ------------------------------------------------------------------ *)

type calibration_sample = {
  data_kb : int;
  blk_kb : int;
  set_kBps : float;
  achieved_kBps : float;
}

let calibration ?(samples = 10) () =
  List.init samples (fun i ->
      let data_kb = 10000 + (i * 10000) in
      let blk_kb = data_kb / 100 in
      let set_kBps = float_of_int data_kb /. 100.0 in  (* bw = 1% of data *)
      let c = Smart_host.Testbed.icpp2005 ~seed:(100 + i) () in
      let server = Smart_host.Cluster.resolve_exn c "lhost" in
      let client = Smart_host.Cluster.resolve_exn c "sagit" in
      ignore
        (Smart_host.Cluster.shape_access c ~node:server
           ~rate_bytes_per_sec:(Some (set_kBps *. 1024.0)));
      let r =
        Smart_apps.Massd.run c ~client ~servers:[ server ] ~data_kb ~blk_kb
      in
      {
        data_kb;
        blk_kb;
        set_kBps;
        achieved_kBps = to_kBps r.Smart_apps.Massd.throughput;
      })

let print_calibration rows =
  let tab =
    Smart_util.Tabular.create
      ~title:"Fig 5.3: rshaper vs massd calibration (bw = 1% of data)"
      ~header:[ "data (KB)"; "blk (KB)"; "set (KB/s)"; "achieved (KB/s)" ]
  in
  List.iter
    (fun s ->
      Smart_util.Tabular.add_row tab
        [
          string_of_int s.data_kb;
          string_of_int s.blk_kb;
          Fmt.str "%.0f" s.set_kBps;
          Fmt.str "%.0f" s.achieved_kBps;
        ])
    rows;
  Smart_util.Tabular.print tab

(* ------------------------------------------------------------------ *)
(* Tables 5.7-5.9                                                       *)
(* ------------------------------------------------------------------ *)

type run_row = { label : string; servers : string list; kBps : float; paper_kBps : float option }

type table = {
  title : string;
  group1_mbps : float;
  group2_mbps : float;
  requirement : string;
  rows : run_row list;  (* random sets then the smart set, smart last *)
}

(* Build the shaped testbed and return (cluster builder, smart servers).
   Selection runs on a deployed stack whose netmon measures through the
   shapers; timing runs use fresh clusters with identical shaping. *)
let shaped_cluster ~seed ~g1_mbps ~g2_mbps () =
  let c = Smart_host.Testbed.icpp2005 ~seed () in
  let shape hosts mbps =
    List.iter
      (fun h ->
        ignore
          (Smart_host.Cluster.shape_access c
             ~node:(Smart_host.Cluster.resolve_exn c h)
             ~rate_bytes_per_sec:(Some (mbps_to_Bps mbps))))
      hosts
  in
  shape group1 g1_mbps;
  shape group2 g2_mbps;
  c

let smart_select ~g1_mbps ~g2_mbps ~wanted ~requirement =
  let c = shaped_cluster ~seed:21 ~g1_mbps ~g2_mbps () in
  let d =
    Smart_core.Simdriver.deploy c ~monitor:"dalmatian" ~wizard_host:"dalmatian"
      ~servers:(group1 @ group2)
  in
  Smart_core.Simdriver.settle ~duration:6.0 d;
  ignore (Smart_core.Simdriver.refresh_netmon ~trials:3 d);
  match Smart_core.Simdriver.request d ~client:"sagit" ~wanted ~requirement with
  | Ok servers -> servers
  | Error e ->
    failwith (Fmt.str "massd smart selection failed: %a" Smart_core.Client.pp_error e)

let timed_download ~seed ~g1_mbps ~g2_mbps ~servers ~data_kb ~blk_kb =
  let c = shaped_cluster ~seed ~g1_mbps ~g2_mbps () in
  let resolve = Smart_host.Cluster.resolve_exn c in
  let r =
    Smart_apps.Massd.run c
      ~client:(resolve "sagit")
      ~servers:(List.map resolve servers)
      ~data_kb ~blk_kb
  in
  to_kBps r.Smart_apps.Massd.throughput

type setup = {
  title : string;
  g1_mbps : float;
  g2_mbps : float;
  wanted : int;
  requirement : string;
  random_sets : (string * string list * float option) list;
  paper_smart : float option;
}

let setups =
  [
    {
      title = "Table 5.7 / Fig 5.4: 1 vs 1 massd";
      g1_mbps = 6.72;
      g2_mbps = 1.33;
      wanted = 1;
      requirement = "monitor_network_bw > 6\n";
      random_sets = [ ("Random", [ "pandora-x" ], Some 170.0) ];
      paper_smart = Some 860.0;
    };
    {
      title = "Table 5.8 / Fig 5.5: 2 vs 2 massd";
      g1_mbps = 5.01;
      g2_mbps = 7.67;
      wanted = 2;
      requirement = "monitor_network_bw > 7\n";
      random_sets =
        [
          ("Random1 (0 fast)", [ "mimas"; "telesto" ], Some 660.0);
          ("Random2 (1 fast)", [ "telesto"; "titan-x" ], Some 795.0);
        ];
      paper_smart = Some 994.0;
    };
    {
      title = "Table 5.9 / Fig 5.6: 3 vs 3 massd";
      g1_mbps = 5.99;
      g2_mbps = 2.92;
      wanted = 3;
      requirement = "monitor_network_bw > 5\n";
      random_sets =
        [
          ("Random1 (0 fast)", [ "dione"; "titan-x"; "pandora-x" ], Some 387.0);
          ("Random2 (1 fast)", [ "mimas"; "titan-x"; "dione" ], Some 520.0);
          ("Random3 (2 fast)", [ "telesto"; "mimas"; "dione" ], Some 634.0);
        ];
      paper_smart = Some 796.0;
    };
  ]

let run_setup ~data_kb (s : setup) =
  let blk_kb = 100 in
  let smart =
    smart_select ~g1_mbps:s.g1_mbps ~g2_mbps:s.g2_mbps ~wanted:s.wanted
      ~requirement:s.requirement
  in
  let rows =
    List.mapi
      (fun i (label, servers, paper) ->
        {
          label;
          servers;
          kBps =
            timed_download ~seed:(40 + i) ~g1_mbps:s.g1_mbps ~g2_mbps:s.g2_mbps
              ~servers ~data_kb ~blk_kb;
          paper_kBps = paper;
        })
      s.random_sets
    @ [
        {
          label = "Smart";
          servers = smart;
          kBps =
            timed_download ~seed:60 ~g1_mbps:s.g1_mbps ~g2_mbps:s.g2_mbps
              ~servers:smart ~data_kb ~blk_kb;
          paper_kBps = s.paper_smart;
        };
      ]
  in
  {
    title = s.title;
    group1_mbps = s.g1_mbps;
    group2_mbps = s.g2_mbps;
    requirement = s.requirement;
    rows;
  }

let run_all ?(data_kb = 50000) () = List.map (run_setup ~data_kb) setups

let print_table (t : table) =
  let tab =
    Smart_util.Tabular.create ~title:t.title
      ~header:[ "Set"; "Servers"; "KB/s"; "Paper KB/s" ]
  in
  Smart_util.Tabular.add_row tab
    [ "Group-1 bw"; Fmt.str "%.2f Mbps" t.group1_mbps; ""; "" ];
  Smart_util.Tabular.add_row tab
    [ "Group-2 bw"; Fmt.str "%.2f Mbps" t.group2_mbps; ""; "" ];
  Smart_util.Tabular.add_row tab
    [ "Server Req"; String.trim t.requirement; ""; "" ];
  List.iter
    (fun r ->
      Smart_util.Tabular.add_row tab
        [
          r.label;
          String.concat "," r.servers;
          Fmt.str "%.0f" r.kBps;
          (match r.paper_kBps with Some p -> Fmt.str "%.0f" p | None -> "-");
        ])
    t.rows;
  Smart_util.Tabular.print tab
