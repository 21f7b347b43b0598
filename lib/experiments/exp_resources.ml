(* Table 5.2: system resources used by each component with 11 probes
   reporting every 2 seconds.

   Network bandwidth is *measured*: the messages and payload bytes the
   components' own counters ([probe.*], [netmon.*], [transmitter.*],
   [wizard.*]) record over a 60-virtual-second window.  CPU and memory cannot be
   measured inside a simulation, so they are modelled: CPU as a
   per-message processing cost, memory as a base footprint plus the live
   record set.  The model constants are calibrated to the thesis's
   Pentium-4 monitor host and documented here rather than hidden. *)

type row = {
  component : string;
  cpu_pct : float;
  memory_bytes : int;
  bandwidth_kBps : float;
  paper : string;  (* the thesis's figures for the same cell *)
}

type report = { rows : row list; duration : float; probes : int }

(* Modelled per-message CPU costs (fraction of one 2.4 GHz core). *)
let probe_cpu_per_msg = 0.8e-3      (* /proc scan + format *)
let sysmon_cpu_per_msg = 1.2e-3     (* parse + db update *)
let wizard_cpu_per_msg = 8.0e-3     (* parse requirement + scan db *)
let stream_cpu_per_msg = 0.4e-3

let base_footprint = 8 * 1024

let run ?(duration = 60.0) () =
  let c = Smart_host.Testbed.icpp2005 () in
  let servers = Smart_host.Testbed.machine_names in
  let d =
    Smart_core.Simdriver.deploy c ~monitor:"dalmatian" ~wizard_host:"dalmatian"
      ~servers
  in
  Smart_core.Simdriver.settle ~duration:2.0 d;
  let t0 = Smart_host.Cluster.now c in
  ignore (Smart_core.Simdriver.refresh_netmon ~trials:2 d);
  (* a few client requests so the wizard row is non-trivial *)
  for _ = 1 to 5 do
    ignore
      (Smart_core.Simdriver.request d ~client:"sagit" ~wanted:4
         ~requirement:"host_cpu_free > 0.1\n")
  done;
  Smart_core.Simdriver.settle ~duration:(duration -. (Smart_host.Cluster.now c -. t0)) d;
  let elapsed = Smart_host.Cluster.now c -. t0 in
  let counter =
    Smart_util.Metrics.counter_value (Smart_core.Simdriver.metrics d)
  in
  let probe_msgs = counter "probe.reports_total"
  and probe_bytes = counter "probe.report_bytes_total" in
  let netmon_bytes = counter "netmon.probe_bytes_total" in
  let tx_msgs = counter "transmitter.pushes_total"
  and tx_bytes = counter "transmitter.bytes_total" in
  (* centralized mode: the request port sends nothing but replies *)
  let wiz_msgs = counter "wizard.requests_total"
  and wiz_bytes = counter "wizard.reply_bytes_total" in
  let n_probes = List.length servers in
  let kBps bytes = float_of_int bytes /. 1024.0 /. elapsed in
  let rate msgs = float_of_int msgs /. elapsed in
  let sys_db_bytes =
    Smart_core.Status_db.sys_count (Smart_core.Simdriver.db_wizard d)
    * Smart_proto.Records.sys_record_size
  in
  let rows =
    [
      {
        component = "System Probe (each)";
        cpu_pct = 100.0 *. probe_cpu_per_msg *. rate probe_msgs /. float_of_int n_probes;
        memory_bytes = base_footprint;
        bandwidth_kBps = kBps probe_bytes /. float_of_int n_probes;
        paper = "<0.1% / 8 KB / 0.5~0.6 KBps";
      };
      {
        component = "System Monitor";
        cpu_pct = 100.0 *. sysmon_cpu_per_msg *. rate probe_msgs;
        memory_bytes = base_footprint + sys_db_bytes;
        bandwidth_kBps = kBps probe_bytes;  (* receives all probe traffic *)
        paper = "0.7% / 8 KB / 5.7 KBps";
      };
      {
        component = "Network Monitor";
        cpu_pct = 0.05;
        memory_bytes = base_footprint;
        bandwidth_kBps = kBps netmon_bytes;
        paper = "<0.1% / 8 KB / 5.6 KBps";
      };
      {
        component = "Security Monitor";
        cpu_pct = 0.01;
        memory_bytes = base_footprint;
        bandwidth_kBps = 0.0;
        paper = "<0.1% / 8 KB / (not used)";
      };
      {
        component = "Transmitter";
        cpu_pct = 100.0 *. stream_cpu_per_msg *. rate tx_msgs;
        memory_bytes = base_footprint;
        bandwidth_kBps = kBps tx_bytes;
        paper = "<0.1% / 8 KB / 1.2 KBps";
      };
      {
        component = "Receiver";
        cpu_pct = 100.0 *. stream_cpu_per_msg *. rate tx_msgs;
        memory_bytes = base_footprint + sys_db_bytes + (16 * 1024);
        bandwidth_kBps = kBps tx_bytes;
        paper = "<0.1% / 92 KB / 1.2 KBps";
      };
      {
        component = "Wizard";
        cpu_pct = 100.0 *. wizard_cpu_per_msg *. rate wiz_msgs;
        memory_bytes = base_footprint + sys_db_bytes + (24 * 1024);
        bandwidth_kBps = kBps wiz_bytes;
        paper = "0.1% / 96 KB / <1 KBps";
      };
    ]
  in
  { rows; duration = elapsed; probes = n_probes }

let print (r : report) =
  let tab =
    Smart_util.Tabular.create
      ~title:
        (Printf.sprintf
           "Table 5.2: system resources with %d probes (%.0f s window)"
           r.probes r.duration)
      ~header:[ "Program"; "CPU"; "Memory"; "Net bandwidth"; "Paper" ]
  in
  List.iter
    (fun row ->
      Smart_util.Tabular.add_row tab
        [
          row.component;
          Fmt.str "%.2f%%" row.cpu_pct;
          Fmt.str "%a" Smart_util.Units.pp_bytes row.memory_bytes;
          Fmt.str "%.2f KBps" row.bandwidth_kBps;
          row.paper;
        ])
    r.rows;
  Smart_util.Tabular.print tab
