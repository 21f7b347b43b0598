(* Fixtures reproducing the thesis testbeds.

   [icpp2005] is the 11-machine cluster of Table 5.1 / Fig 5.1: six
   network segments of 100 Mbps Ethernet, the remote host sagit reaching
   the lab through the gateway dalmatian.

   The per-machine [matmul_rate] values encode the Fig 5.2 benchmark
   shape: for the thesis's matrix program the P3-866 and P4-2.4GHz hosts
   out-perform the P4-1.6..1.8GHz hosts (cache behaviour), which is what
   makes bogomips alone a misleading selector and the requirement
   language useful. *)

let mb = 1024 * 1024

let mk ~name ~ip ~cpu_model ~cpu_mhz ~bogomips ~ram_mb ~os ~matmul_rate =
  {
    Machine.name;
    ip;
    cpu_model;
    cpu_mhz;
    bogomips;
    ram_bytes = ram_mb * mb;
    os;
    matmul_rate;
    disk_rate = 8000.0;
  }

(* Table 5.1 with Fig 5.2-calibrated matmul rates (ops/second for the
   thesis's vector-multiplication implementation). *)
let specs =
  [
    mk ~name:"sagit" ~ip:"137.132.81.2" ~cpu_model:"P3 866MHz" ~cpu_mhz:866.0
      ~bogomips:1730.15 ~ram_mb:128 ~os:"Debian Linux 3.0r2"
      ~matmul_rate:24.0e6;
    mk ~name:"dalmatian" ~ip:"192.168.0.254" ~cpu_model:"P4 2.4GHz"
      ~cpu_mhz:2400.0 ~bogomips:4771.02 ~ram_mb:512 ~os:"Redhat Linux 8.0"
      ~matmul_rate:30.0e6;
    mk ~name:"mimas" ~ip:"192.168.1.2" ~cpu_model:"P4 1.7GHz" ~cpu_mhz:1700.0
      ~bogomips:3394.76 ~ram_mb:192 ~os:"Redhat Linux 9.0"
      ~matmul_rate:17.5e6;
    mk ~name:"telesto" ~ip:"192.168.1.3" ~cpu_model:"P4 1.6GHz" ~cpu_mhz:1600.0
      ~bogomips:3185.04 ~ram_mb:128 ~os:"Redhat Linux 7.3"
      ~matmul_rate:16.0e6;
    mk ~name:"lhost" ~ip:"192.168.2.2" ~cpu_model:"P3 866MHz" ~cpu_mhz:866.0
      ~bogomips:1730.15 ~ram_mb:128 ~os:"Redhat Linux 9.0"
      ~matmul_rate:23.5e6;
    mk ~name:"helene" ~ip:"192.168.2.3" ~cpu_model:"P4 1.7GHz" ~cpu_mhz:1700.0
      ~bogomips:3394.76 ~ram_mb:256 ~os:"Redhat Linux 9.0"
      ~matmul_rate:17.8e6;
    mk ~name:"phoebe" ~ip:"192.168.3.2" ~cpu_model:"P4 1.7GHz" ~cpu_mhz:1700.0
      ~bogomips:3394.76 ~ram_mb:256 ~os:"Redhat Linux 9.0"
      ~matmul_rate:17.6e6;
    mk ~name:"calypso" ~ip:"192.168.3.3" ~cpu_model:"P4 1.7GHz" ~cpu_mhz:1700.0
      ~bogomips:3394.76 ~ram_mb:256 ~os:"Redhat Linux 9.0"
      ~matmul_rate:17.4e6;
    mk ~name:"dione" ~ip:"192.168.4.2" ~cpu_model:"P4 2.4GHz" ~cpu_mhz:2400.0
      ~bogomips:4771.02 ~ram_mb:512 ~os:"Redhat Linux 7.3"
      ~matmul_rate:29.5e6;
    mk ~name:"titan-x" ~ip:"192.168.4.3" ~cpu_model:"P4 1.7GHz" ~cpu_mhz:1700.0
      ~bogomips:3394.76 ~ram_mb:256 ~os:"Redhat Linux 7.3"
      ~matmul_rate:17.3e6;
    mk ~name:"pandora-x" ~ip:"192.168.5.2" ~cpu_model:"P4 1.8GHz"
      ~cpu_mhz:1800.0 ~bogomips:3591.37 ~ram_mb:256 ~os:"Redhat Linux 9.0"
      ~matmul_rate:19.0e6;
  ]

let spec_of_name name =
  match List.find_opt (fun s -> String.equal s.Machine.name name) specs with
  | Some s -> s
  | None -> invalid_arg ("Testbed.spec_of_name: unknown machine " ^ name)

let lan_conf =
  {
    Smart_net.Link.capacity = 100e6 /. 8.0;
    prop_delay = 20e-6;
    jitter = 3e-6;
    loss = 0.0;
  }

let helenes subnet names =
  List.mapi
    (fun i name ->
      { (spec_of_name "helene") with
        Machine.name; ip = Printf.sprintf "%s.%d" subnet (i + 1) })
    names

(* One switch per segment; hosts, then switches, then access links in
   segment order, then the trunks chaining consecutive switches.  The
   order fixes the node ids and the draws on the seeded generator, so a
   seed builds the same cluster every time. *)
let switched_lan ~seed ?(access = fun _ -> lan_conf) ?(trunks = []) segments =
  let c = Cluster.create ~seed () in
  let hosts =
    List.map
      (fun (_, _, specs) ->
        List.map (fun s -> (s.Machine.name, Cluster.add_machine c s)) specs)
      segments
  in
  let switches =
    List.map (fun (name, ip, _) -> Cluster.add_switch c ~name ~ip) segments
  in
  List.iter2
    (fun sw nodes ->
      List.iter
        (fun (name, node) -> ignore (Cluster.link c ~a:node ~b:sw (access name)))
        nodes)
    switches hosts;
  let rec trunk i = function
    | a :: (b :: _ as rest) ->
      let conf = Option.value ~default:lan_conf (List.nth_opt trunks i) in
      ignore (Cluster.link c ~a ~b conf);
      trunk (i + 1) rest
    | [ _ ] | [] -> ()
  in
  trunk 0 switches;
  c

(* Fig 5.1: sagit — dalmatian (gateway) — lab backbone — 5 segments. *)
let icpp2005 ?(seed = 42) ?trace () =
  let c = Cluster.create ~seed ?trace () in
  let add name = Cluster.add_machine c (spec_of_name name) in
  let sagit = add "sagit" in
  let dalmatian = add "dalmatian" in
  let backbone = Cluster.add_switch c ~name:"lab-bb" ~ip:"192.168.0.1" in
  let seg i = Cluster.add_switch c ~name:(Printf.sprintf "seg%d-sw" i)
      ~ip:(Printf.sprintf "192.168.%d.1" i)
  in
  let segments = Array.init 5 (fun i -> seg (i + 1)) in
  ignore (Cluster.link c ~a:sagit ~b:dalmatian lan_conf);
  ignore (Cluster.link c ~a:dalmatian ~b:backbone lan_conf);
  Array.iter (fun sw -> ignore (Cluster.link c ~a:backbone ~b:sw lan_conf))
    segments;
  let attach seg_idx name =
    let id = add name in
    ignore (Cluster.link c ~a:segments.(seg_idx) ~b:id lan_conf);
    id
  in
  ignore (attach 0 "mimas");
  ignore (attach 0 "telesto");
  ignore (attach 1 "lhost");
  ignore (attach 1 "helene");
  ignore (attach 2 "phoebe");
  ignore (attach 2 "calypso");
  ignore (attach 3 "dione");
  ignore (attach 3 "titan-x");
  ignore (attach 4 "pandora-x");
  c

let machine_names = List.map (fun s -> s.Machine.name) specs

(* ------------------------------------------------------------------ *)
(* Wide-area paths of Table 3.2 for the RTT experiments (Fig 3.3-3.6)  *)
(* ------------------------------------------------------------------ *)

type rtt_path = {
  label : string;
  src : int;
  dst : int;
  description : string;
  ping_rtt : float;  (* thesis's ping figure, seconds *)
}

type paths_fixture = {
  cluster : Cluster.t;
  sagit : int;
  suna : int;
  paths : rtt_path list;
}

let wan_conf ~capacity_mbps ~prop ~jitter =
  {
    Smart_net.Link.capacity = capacity_mbps *. 1e6 /. 8.0;
    prop_delay = prop;
    jitter;
    loss = 0.0;
  }

let host name ip =
  mk ~name ~ip ~cpu_model:"P3 866MHz" ~cpu_mhz:866.0 ~bogomips:1730.15
    ~ram_mb:128 ~os:"Debian Linux 3.0r2" ~matmul_rate:24.0e6

(* Builds the measurement topology.  [sagit_mtu] lets the Fig 3.4/3.5
   experiments lower the interface MTU to 1000/500 bytes;
   [sagit_virtual] removes the interface-initialisation cost (the
   Speed_init ablation and observation 1 of §3.3.2).  The cmui path
   carries bursty cross traffic so its knee is "shadowed" by delay
   variation, reproducing observation 4 of §3.3.2. *)
let paths ?(sagit_mtu = 1500) ?(sagit_virtual = false) () =
  let c = Cluster.create ~seed:7 () in
  let nic mtu = { Smart_net.Topology.default_nic with mtu } in
  let sagit =
    Cluster.add_machine c
      ~nic:{ (nic sagit_mtu) with Smart_net.Topology.virtual_if = sagit_virtual }
      (host "sagit" "137.132.81.2")
  in
  let suna = Cluster.add_machine c (host "suna" "137.132.81.3") in
  let ubin = Cluster.add_machine c (host "ubin" "137.132.81.4") in
  let tokxp = Cluster.add_machine c (host "tokxp" "203.178.140.2") in
  let jpfreebsd = Cluster.add_machine c (host "jpfreebsd" "203.178.140.3") in
  let cmui = Cluster.add_machine c (host "cmui" "128.2.220.137") in
  let helene = Cluster.add_machine c (host "helene" "192.168.2.3") in
  let atlas = Cluster.add_machine c (host "atlas" "192.168.2.4") in
  let campus_sw = Cluster.add_switch c ~name:"campus-sw" ~ip:"137.132.81.1" in
  let lab_sw = Cluster.add_switch c ~name:"lab-sw" ~ip:"192.168.2.1" in
  let singaren = Cluster.add_switch c ~name:"singaren" ~ip:"202.3.135.17" in
  let apan_jp = Cluster.add_switch c ~name:"apan-jp" ~ip:"203.178.140.1" in
  let abilene = Cluster.add_switch c ~name:"abilene" ~ip:"198.32.8.50" in
  let campus = wan_conf ~capacity_mbps:100.0 ~prop:30e-6 ~jitter:4e-6 in
  (* campus segment: sagit, suna, ubin on one switch *)
  ignore (Cluster.link c ~a:sagit ~b:campus_sw campus);
  ignore (Cluster.link c ~a:suna ~b:campus_sw campus);
  ignore (Cluster.link c ~a:ubin ~b:campus_sw campus);
  (* lab segment: helene, atlas on the same switch *)
  ignore (Cluster.link c ~a:helene ~b:lab_sw campus);
  ignore (Cluster.link c ~a:atlas ~b:lab_sw campus);
  ignore (Cluster.link c ~a:campus_sw ~b:lab_sw campus);
  (* Singapore -> Japan: 126 ms ping RTT, moderate jitter *)
  ignore
    (Cluster.link c ~a:campus_sw ~b:singaren
       (wan_conf ~capacity_mbps:622.0 ~prop:1.0e-3 ~jitter:80e-6));
  ignore
    (Cluster.link c ~a:singaren ~b:apan_jp
       (wan_conf ~capacity_mbps:155.0 ~prop:61.5e-3 ~jitter:400e-6));
  ignore (Cluster.link c ~a:tokxp ~b:apan_jp campus);
  ignore (Cluster.link c ~a:jpfreebsd ~b:apan_jp
            (wan_conf ~capacity_mbps:100.0 ~prop:120e-6 ~jitter:10e-6));
  (* Singapore -> CMU: 238 ms ping RTT, high jitter, bursty cross load *)
  let cmu_chan_fwd, cmu_chan_rev =
    Cluster.link c ~a:singaren ~b:abilene
      (wan_conf ~capacity_mbps:622.0 ~prop:105e-3 ~jitter:2.5e-3)
  in
  ignore
    (Cluster.link c ~a:cmui ~b:abilene
       (wan_conf ~capacity_mbps:100.0 ~prop:12e-3 ~jitter:1.2e-3));
  let rng = Cluster.rng c in
  Smart_net.Cross_traffic.bursty ~engine:(Cluster.engine c)
    ~rng:(Smart_util.Prng.split rng) ~chan:cmu_chan_fwd
    ~on_load:(45e6 /. 8.0) ~off_load:(8e6 /. 8.0) ();
  Smart_net.Cross_traffic.bursty ~engine:(Cluster.engine c)
    ~rng:(Smart_util.Prng.split rng) ~chan:cmu_chan_rev
    ~on_load:(45e6 /. 8.0) ~off_load:(8e6 /. 8.0) ();
  let paths =
    [
      { label = "a"; src = sagit; dst = tokxp;
        description = "NUS campus to APAN Japan"; ping_rtt = 126e-3 };
      { label = "b"; src = sagit; dst = cmui;
        description = "NUS campus to CMU USA"; ping_rtt = 238e-3 };
      { label = "c"; src = sagit; dst = ubin;
        description = "local network segment"; ping_rtt = 0.262e-3 };
      { label = "d"; src = tokxp; dst = jpfreebsd;
        description = "APAN Japan to ftp server in Japan"; ping_rtt = 0.552e-3 };
      { label = "e"; src = helene; dst = atlas;
        description = "the same switch"; ping_rtt = 0.196e-3 };
      { label = "f"; src = sagit; dst = sagit;
        description = "test on loopback interface"; ping_rtt = 0.041e-3 };
    ]
  in
  { cluster = c; sagit; suna; paths }
