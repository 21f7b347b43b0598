(* `smart` — command-line front end for the Smart TCP socket daemons.

     smart probe    --host NAME --ip IP --monitor HOST [--interval S]
     smart monitor  --host NAME --wizard HOST [--targets a,b] [--seclog F]
     smart wizard   --host NAME [--distributed --transmitters a,b]
     smart query    --wizard HOST --servers N (--expr E | --file F) [--connect]

   All daemons run in the foreground until interrupted.  Each binds the
   wildcard address, and resolves the hosts it sends to once, when it
   starts, through the system resolver (run one component per machine,
   as in Fig 3.1); the single-machine integration tests use the
   library's address book directly instead. *)

let setup_logs level =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level level

let book () = Smart_realnet.Addr_book.create ()

(* A daemon whose peers do not all resolve, or whose ports another
   process holds, stops before it starts. *)
let create_daemon create =
  try create () with
  | Failure reason ->
    Fmt.epr "smart: %s@." reason;
    exit 2
  | Unix.Unix_error (err, fn, _) ->
    Fmt.epr "smart: %s: %s@." fn (Unix.error_message err);
    exit 2

(* Each daemon runs on its own event loop; the main thread only waits. *)
let rec idle () =
  Thread.delay 60.0;
  idle ()

(* ------------------------------------------------------------------ *)
(* probe                                                                *)
(* ------------------------------------------------------------------ *)

let run_probe host ip monitor interval =
  setup_logs (Some Logs.Info);
  let daemon =
    create_daemon @@ fun () ->
    Smart_realnet.Probe_daemon.create (book ())
      {
        Smart_realnet.Probe_daemon.host;
        ip;
        monitor_host = monitor;
        interval;
        proc = Smart_realnet.Proc_reader.default;
        iface = None;
      }
  in
  Smart_realnet.Probe_daemon.start daemon;
  Logs.app (fun m ->
      m "probe %s reporting to %s every %.1f s (ctrl-c to stop)" host monitor
        interval);
  idle ()

(* ------------------------------------------------------------------ *)
(* monitor                                                              *)
(* ------------------------------------------------------------------ *)

let split_commas s =
  if s = "" then []
  else String.split_on_char ',' s |> List.map String.trim

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let data = really_input_string ic n in
  close_in ic;
  data

let run_monitor host wizard targets seclog interval distributed =
  setup_logs (Some Logs.Info);
  let daemon =
    create_daemon @@ fun () ->
    Smart_realnet.Monitor_daemon.create (book ())
      {
        Smart_realnet.Monitor_daemon.host;
        wizard_host = wizard;
        mode =
          (if distributed then Smart_core.Transmitter.Distributed
           else Smart_core.Transmitter.Centralized);
        probe_interval = interval;
        transmit_interval = interval;
        netmon_targets = split_commas targets;
        security_log = (match seclog with Some f -> read_file f | None -> "");
      }
  in
  Smart_realnet.Monitor_daemon.start daemon;
  Logs.app (fun m -> m "monitor %s -> wizard %s (ctrl-c to stop)" host wizard);
  let rec wait () =
    Thread.delay interval;
    if split_commas targets <> [] then
      ignore (Smart_realnet.Monitor_daemon.refresh_netmon daemon);
    wait ()
  in
  wait ()

(* ------------------------------------------------------------------ *)
(* wizard                                                               *)
(* ------------------------------------------------------------------ *)

let run_wizard host distributed transmitters admission_rate admission_burst =
  setup_logs (Some Logs.Info);
  let mode =
    if distributed then
      Smart_core.Wizard.Distributed
        (List.map
           (fun h ->
             {
               Smart_core.Output.host = h;
               port = Smart_proto.Ports.transmitter;
             })
           (split_commas transmitters))
    else Smart_core.Wizard.Centralized
  in
  let daemon =
    create_daemon @@ fun () ->
    Smart_realnet.Wizard_daemon.create (book ())
      {
        Smart_realnet.Wizard_daemon.host;
        mode;
        staleness_threshold = infinity;
        admission =
          (match admission_rate with
          | None -> None
          | Some rate ->
            Some
              {
                Smart_core.Wizard.default_admission with
                Smart_core.Wizard.rate;
                burst = Option.value admission_burst ~default:rate;
              });
      }
  in
  Smart_realnet.Wizard_daemon.start daemon;
  Logs.app (fun m ->
      m "wizard %s listening on %d (ctrl-c to stop)" host
        Smart_proto.Ports.wizard);
  idle ()

(* ------------------------------------------------------------------ *)
(* query                                                                *)
(* ------------------------------------------------------------------ *)

let run_query wizard wanted expr file connect strict =
  setup_logs (Some Logs.Warning);
  let requirement =
    match (expr, file) with
    | Some e, _ -> e ^ "\n"
    | None, Some f -> read_file f
    | None, None -> ""
  in
  (match Smart_core.Client.lint_requirement requirement with
  | Error e ->
    Fmt.epr "requirement does not compile: %s@." e;
    exit 2
  | Ok [] -> ()
  | Ok unknown ->
    Fmt.epr "warning: unbound variables: %s@." (String.concat ", " unknown));
  let option =
    if strict then Smart_proto.Wizard_msg.Strict
    else Smart_proto.Wizard_msg.Accept_partial
  in
  let b = book () in
  if connect then begin
    match
      Smart_realnet.Client_io.request_sockets b ~option ~wizard_host:wizard
        ~wanted ~requirement ()
    with
    | Error e ->
      Fmt.epr "query failed: %a@." Smart_core.Client.pp_error e;
      exit 1
    | Ok servers ->
      List.iter
        (fun (s : Smart_realnet.Client_io.connected_server) ->
          Fmt.pr "%s (connected)@." s.Smart_realnet.Client_io.host)
        servers;
      Smart_realnet.Client_io.close_all servers
  end
  else begin
    match
      Smart_realnet.Client_io.request_servers b ~option ~wizard_host:wizard
        ~wanted ~requirement ()
    with
    | Error e ->
      Fmt.epr "query failed: %a@." Smart_core.Client.pp_error e;
      exit 1
    | Ok servers -> List.iter (Fmt.pr "%s@.") servers
  end

(* ------------------------------------------------------------------ *)
(* metrics and trace                                                    *)
(* ------------------------------------------------------------------ *)

(* Which daemon socket answers a scrape; see OBSERVABILITY.md. *)
let scrape_port = function
  | "wizard" -> Ok Smart_proto.Ports.wizard
  | "monitor" -> Ok Smart_proto.Ports.transmitter
  | "probe" -> Ok Smart_proto.Ports.probe
  | c -> Error c

(* One scrape of a running daemon: its metrics registry or its flight
   recorder, as text lines or JSON. *)
let scrape_metrics ~json book ~host ~port =
  let format =
    if json then Smart_proto.Metrics_msg.Json else Smart_proto.Metrics_msg.Text
  in
  Smart_realnet.Client_io.scrape_metrics ~format book ~host ~port ()

let scrape_trace ~json book ~host ~port =
  let format =
    if json then Smart_proto.Trace_msg.Json else Smart_proto.Trace_msg.Text
  in
  Smart_realnet.Client_io.scrape_trace ~format book ~host ~port ()

let run_scrape scrape host component json =
  setup_logs (Some Logs.Warning);
  match scrape_port component with
  | Error c ->
    Fmt.epr "unknown component %S (expected wizard, monitor or probe)@." c;
    exit 2
  | Ok port ->
    (match scrape ~json (book ()) ~host ~port with
    | Error reason ->
      Fmt.epr "scrape failed: %s@." reason;
      exit 1
    | Ok dump -> print_string dump)

(* ------------------------------------------------------------------ *)
(* cmdliner plumbing                                                    *)
(* ------------------------------------------------------------------ *)

open Cmdliner

let host_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "host" ] ~docv:"NAME" ~doc:"Logical name of this machine.")

let probe_cmd =
  let ip =
    Arg.(
      value & opt string "127.0.0.1"
      & info [ "ip" ] ~docv:"IP" ~doc:"Address reported to the monitor.")
  in
  let monitor =
    Arg.(
      required
      & opt (some string) None
      & info [ "monitor" ] ~docv:"HOST" ~doc:"System monitor host.")
  in
  let interval =
    Arg.(
      value & opt float 5.0
      & info [ "interval" ] ~docv:"SECONDS" ~doc:"Probe reporting interval.")
  in
  Cmd.v
    (Cmd.info "probe" ~doc:"Run the server probe daemon on this machine.")
    Term.(const run_probe $ host_arg $ ip $ monitor $ interval)

let monitor_cmd =
  let wizard =
    Arg.(
      required
      & opt (some string) None
      & info [ "wizard" ] ~docv:"HOST" ~doc:"Wizard machine host.")
  in
  let targets =
    Arg.(
      value & opt string ""
      & info [ "targets" ] ~docv:"HOSTS"
          ~doc:"Comma-separated network-monitor probing targets.")
  in
  let seclog =
    Arg.(
      value
      & opt (some file) None
      & info [ "seclog" ] ~docv:"FILE" ~doc:"Security log file.")
  in
  let interval =
    Arg.(
      value & opt float 2.0
      & info [ "interval" ] ~docv:"SECONDS" ~doc:"Transmit interval.")
  in
  let distributed =
    Arg.(
      value & flag
      & info [ "distributed" ] ~doc:"Passive transmitter (pull-driven).")
  in
  Cmd.v
    (Cmd.info "monitor"
       ~doc:"Run the system/network/security monitors and the transmitter.")
    Term.(
      const run_monitor $ host_arg $ wizard $ targets $ seclog $ interval
      $ distributed)

let wizard_cmd =
  let distributed =
    Arg.(
      value & flag & info [ "distributed" ] ~doc:"Pull snapshots per request.")
  in
  let transmitters =
    Arg.(
      value & opt string ""
      & info [ "transmitters" ] ~docv:"HOSTS"
          ~doc:"Comma-separated transmitter hosts (distributed mode).")
  in
  let admission_rate =
    Arg.(
      value
      & opt (some float) None
      & info [ "admission-rate" ] ~docv:"REQ_PER_S"
          ~doc:
            "Arm per-client admission control: sustained requests per second \
             allowed per client host (off when absent).")
  in
  let admission_burst =
    Arg.(
      value
      & opt (some float) None
      & info [ "admission-burst" ] ~docv:"TOKENS"
          ~doc:"Admission burst per client (defaults to the rate).")
  in
  Cmd.v
    (Cmd.info "wizard" ~doc:"Run the receiver and the wizard daemon.")
    Term.(
      const run_wizard $ host_arg $ distributed $ transmitters $ admission_rate
      $ admission_burst)

let query_cmd =
  let wizard =
    Arg.(
      required
      & opt (some string) None
      & info [ "wizard" ] ~docv:"HOST" ~doc:"Wizard machine host.")
  in
  let wanted =
    Arg.(
      value & opt int 1
      & info [ "servers" ] ~docv:"N" ~doc:"Number of servers wanted.")
  in
  let expr =
    Arg.(
      value
      & opt (some string) None
      & info [ "expr"; "e" ] ~docv:"REQUIREMENT"
          ~doc:"Requirement expression (one line).")
  in
  let file =
    Arg.(
      value
      & opt (some file) None
      & info [ "file"; "f" ] ~docv:"FILE" ~doc:"Requirement file.")
  in
  let connect =
    Arg.(
      value & flag
      & info [ "connect" ] ~doc:"TCP-connect to each returned server.")
  in
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ] ~doc:"Fail unless the full server count is found.")
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Ask the wizard for qualified servers.")
    Term.(const run_query $ wizard $ wanted $ expr $ file $ connect $ strict)

let scrape_cmd name ~doc ~json_doc scrape =
  let target =
    Arg.(
      required
      & opt (some string) None
      & info [ "host" ] ~docv:"NAME" ~doc:"Host the daemon runs on.")
  in
  let component =
    Arg.(
      value & opt string "wizard"
      & info [ "component" ] ~docv:"KIND"
          ~doc:
            "Which daemon to scrape: $(b,wizard), $(b,monitor) (the \
             transmitter's pull port) or $(b,probe) (the echo port).")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:json_doc) in
  Cmd.v (Cmd.info name ~doc)
    Term.(const (run_scrape scrape) $ target $ component $ json)

let metrics_cmd =
  scrape_cmd "metrics"
    ~doc:
      "Dump a running daemon's metrics registry (counters, gauges, latency \
       quantiles)."
    ~json_doc:"Emit the dump as JSON instead of text lines." scrape_metrics

let trace_cmd =
  scrape_cmd "trace"
    ~doc:
      "Dump a running daemon's flight recorder (recent spans with trace and \
       parent ids)."
    ~json_doc:
      "Emit Chrome trace-event JSON (Perfetto-loadable) instead of text lines."
    scrape_trace

let () =
  let doc = "Smart TCP socket for distributed computing (ICPP 2005)" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "smart" ~version:"1.0.0" ~doc)
          [ probe_cmd; monitor_cmd; wizard_cmd; query_cmd; metrics_cmd;
            trace_cmd ]))
