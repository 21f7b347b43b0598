(* Integration tests of the real-socket driver on 127.0.0.1: the full
   probe -> monitor -> transmitter -> receiver -> wizard -> client ->
   TCP-service chain with real UDP/TCP sockets and the host's real
   /proc, plus unit tests of the address book and proc reader. *)

module R = Smart_realnet

let test_addr_book () =
  let book = R.Addr_book.create () in
  let shift_a = R.Addr_book.register_loopback book ~host:"a" in
  let shift_b = R.Addr_book.register_loopback book ~host:"b" in
  Alcotest.(check bool) "distinct shifts" true (shift_a <> shift_b);
  (match R.Addr_book.resolve book ~host:"a" ~port:1000 with
  | Some (Unix.ADDR_INET (addr, port)) ->
    Alcotest.(check string) "loopback" "127.0.0.1"
      (Unix.string_of_inet_addr addr);
    Alcotest.(check int) "shifted port" (1000 + shift_a) port
  | _ -> Alcotest.fail "resolve failed");
  Alcotest.(check int) "unknown host shift 0" 0
    (R.Addr_book.port_shift book ~host:"zzz");
  (* system resolver fallback *)
  match R.Addr_book.resolve book ~host:"127.0.0.1" ~port:80 with
  | Some (Unix.ADDR_INET (_, 80)) -> ()
  | _ -> Alcotest.fail "fallback resolve failed"

let test_proc_reader () =
  if Sys.file_exists "/proc/loadavg" then begin
    let t = R.Proc_reader.default in
    (match R.Proc_reader.snapshot t with
    | Ok s ->
      Alcotest.(check bool) "loadavg text" true
        (String.length s.Smart_host.Procfs.loadavg_text > 0)
    | Error e -> Alcotest.failf "snapshot: %s" e);
    match R.Proc_reader.default_iface t with
    | Some iface -> Alcotest.(check bool) "iface named" true (iface <> "")
    | None -> Alcotest.fail "no interface found"
  end

let test_proc_reader_missing_files () =
  let t =
    {
      R.Proc_reader.loadavg_path = "/nonexistent/loadavg";
      stat_path = "/nonexistent/stat";
      meminfo_path = "/nonexistent/meminfo";
      netdev_path = "/nonexistent/netdev";
      cpuinfo_path = "/nonexistent/cpuinfo";
    }
  in
  Alcotest.(check bool) "missing files error" true
    (Result.is_error (R.Proc_reader.snapshot t));
  Alcotest.(check bool) "no bogomips" true (R.Proc_reader.bogomips t = None)

let test_udp_io_roundtrip () =
  let server = R.Udp_io.bind_port 0 in
  let got = ref None in
  R.Udp_io.start server (fun ~from:_ data -> if data <> "" then got := Some data);
  let client = R.Udp_io.bind_port 0 in
  let to_ =
    Unix.ADDR_INET (Unix.inet_addr_loopback, R.Udp_io.port server)
  in
  Alcotest.(check bool) "send ok" true (R.Udp_io.send client ~to_ "ping!");
  let deadline = Unix.gettimeofday () +. 2.0 in
  while !got = None && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  Alcotest.(check (option string)) "delivered" (Some "ping!") !got;
  R.Udp_io.stop client;
  R.Udp_io.stop server

let test_addr_book_reverse () =
  let book = R.Addr_book.create () in
  let shift = R.Addr_book.register_loopback book ~host:"rev" in
  let sockaddr =
    Unix.ADDR_INET (Unix.inet_addr_loopback, shift + 42)
  in
  Alcotest.(check (option string)) "reverse lookup" (Some "rev")
    (R.Addr_book.host_of_sockaddr book sockaddr);
  Alcotest.(check (option string)) "outside any shift" None
    (R.Addr_book.host_of_sockaddr book
       (Unix.ADDR_INET (Unix.inet_addr_loopback, 7)))

let test_service_protocol () =
  let book = R.Addr_book.create () in
  ignore (R.Addr_book.register_loopback book ~host:"svc");
  let service = R.Service.create book ~name:"svc" in
  R.Service.start service;
  Fun.protect
    ~finally:(fun () -> R.Service.stop service)
    (fun () ->
      match R.Client_io.connect_service book ~host:"svc" with
      | None -> Alcotest.fail "connect failed"
      | Some conn ->
        let fd = conn.R.Client_io.socket in
        R.Service.write_line fd "WHO";
        Alcotest.(check (option string)) "WHO" (Some "svc")
          (R.Service.read_line_opt fd);
        R.Service.write_line fd "nonsense";
        Alcotest.(check (option string)) "unknown command"
          (Some "ERR unknown command")
          (R.Service.read_line_opt fd);
        R.Service.write_line fd "GET -3";
        Alcotest.(check (option string)) "bad size" (Some "ERR bad size")
          (R.Service.read_line_opt fd);
        R.Service.write_line fd "GET 5";
        let buf = Bytes.create 5 in
        Alcotest.(check bool) "blob delivered" true
          (R.Client_io.read_exact fd buf 5);
        R.Service.write_line fd "BYE";
        Unix.close fd;
        Alcotest.(check bool) "connection counted" true
          (R.Service.connections service >= 1))

let test_udp_io_recv_timeout () =
  let s = R.Udp_io.bind_port 0 in
  let t0 = Unix.gettimeofday () in
  Alcotest.(check bool) "times out empty" true
    (R.Udp_io.recv_timeout s ~timeout:0.1 = None);
  Alcotest.(check bool) "waited about the timeout" true
    (Unix.gettimeofday () -. t0 < 1.0);
  R.Udp_io.stop s

(* ------------------------------------------------------------------ *)
(* Full loopback deployment                                             *)
(* ------------------------------------------------------------------ *)

type world = {
  book : R.Addr_book.t;
  wizard : R.Wizard_daemon.t;
  monitor : R.Monitor_daemon.t;
  probes : R.Probe_daemon.t list;
  services : R.Service.t list;
}

let start_world ?(mode = Smart_core.Transmitter.Centralized)
    ?(wizard_mode = Smart_core.Wizard.Centralized) ?(seclog = "") () =
  let book = R.Addr_book.create () in
  List.iter
    (fun h -> ignore (R.Addr_book.register_loopback book ~host:h))
    [ "mon"; "wiz"; "alpha"; "beta"; "gamma" ];
  let wizard =
    R.Wizard_daemon.create book
      {
        R.Wizard_daemon.host = "wiz";
        mode = wizard_mode;
        staleness_threshold = infinity;
        admission = None;
      }
  in
  R.Wizard_daemon.start wizard;
  let monitor =
    R.Monitor_daemon.create book
      {
        R.Monitor_daemon.host = "mon";
        wizard_host = "wiz";
        mode;
        probe_interval = 0.2;
        transmit_interval = 0.2;
        netmon_targets = [ "alpha"; "beta" ];
        security_log = seclog;
      }
  in
  R.Monitor_daemon.start monitor;
  let probes =
    List.mapi
      (fun i host ->
        let p =
          R.Probe_daemon.create book
            {
              R.Probe_daemon.host;
              ip = Printf.sprintf "10.9.0.%d" (i + 1);
              monitor_host = "mon";
              interval = 0.2;
              proc = R.Proc_reader.default;
              iface = None;
            }
        in
        R.Probe_daemon.start p;
        p)
      [ "alpha"; "beta"; "gamma" ]
  in
  let services =
    List.map
      (fun host ->
        let s = R.Service.create book ~name:host in
        R.Service.start s;
        s)
      [ "alpha"; "beta"; "gamma" ]
  in
  { book; wizard; monitor; probes; services }

let stop_world w =
  List.iter R.Probe_daemon.stop w.probes;
  List.iter R.Service.stop w.services;
  R.Monitor_daemon.stop w.monitor;
  R.Wizard_daemon.stop w.wizard

let await_reports w ~count ~timeout =
  let deadline = Unix.gettimeofday () +. timeout in
  let db = R.Wizard_daemon.db w.wizard in
  while
    Smart_core.Status_db.sys_count db < count
    && Unix.gettimeofday () < deadline
  do
    Thread.delay 0.05
  done

let test_end_to_end_request_sockets () =
  let w = start_world () in
  Fun.protect
    ~finally:(fun () -> stop_world w)
    (fun () ->
      await_reports w ~count:3 ~timeout:10.0;
      Alcotest.(check int) "all three servers visible" 3
        (Smart_core.Status_db.sys_count (R.Wizard_daemon.db w.wizard));
      match
        R.Client_io.request_sockets w.book ~wizard_host:"wiz" ~wanted:2
          ~requirement:"host_memory_total > 1\n" ()
      with
      | Error e -> Alcotest.failf "request failed: %a" Smart_core.Client.pp_error e
      | Ok connected ->
        Alcotest.(check int) "two sockets" 2 (List.length connected);
        List.iter
          (fun (s : R.Client_io.connected_server) ->
            R.Service.write_line s.R.Client_io.socket
              ("ECHO " ^ s.R.Client_io.host);
            match R.Service.read_line_opt s.R.Client_io.socket with
            | Some line ->
              Alcotest.(check string) "echo through the socket"
                s.R.Client_io.host line
            | None -> Alcotest.fail "no echo")
          connected;
        R.Client_io.close_all connected)

let test_security_filter_real () =
  let w = start_world ~seclog:"alpha 5\nbeta 4\ngamma 1\n" () in
  Fun.protect
    ~finally:(fun () -> stop_world w)
    (fun () ->
      await_reports w ~count:3 ~timeout:10.0;
      match
        R.Client_io.request_servers w.book ~wizard_host:"wiz" ~wanted:3
          ~requirement:"host_security_level >= 3\n" ()
      with
      | Error e -> Alcotest.failf "request failed: %a" Smart_core.Client.pp_error e
      | Ok servers ->
        Alcotest.(check (list string)) "gamma filtered out"
          [ "alpha"; "beta" ]
          (List.sort compare servers))

let test_strict_option_real () =
  let w = start_world () in
  Fun.protect
    ~finally:(fun () -> stop_world w)
    (fun () ->
      await_reports w ~count:3 ~timeout:10.0;
      (* impossible requirement + strict: must fail with Not_enough *)
      match
        R.Client_io.request_servers w.book
          ~option:Smart_proto.Wizard_msg.Strict ~wizard_host:"wiz" ~wanted:2
          ~requirement:"host_memory_total < 0\n" ()
      with
      | Error (Smart_core.Client.Not_enough _) -> ()
      | Error e -> Alcotest.failf "unexpected error: %a" Smart_core.Client.pp_error e
      | Ok _ -> Alcotest.fail "strict must fail on an impossible requirement")

let test_netmon_real_probing () =
  let w = start_world () in
  Fun.protect
    ~finally:(fun () -> stop_world w)
    (fun () ->
      await_reports w ~count:3 ~timeout:10.0;
      let record = R.Monitor_daemon.refresh_netmon w.monitor in
      (* both echo responders answered, loopback delay is tiny *)
      Alcotest.(check int) "two targets measured" 2
        (List.length record.Smart_proto.Records.entries);
      List.iter
        (fun (e : Smart_proto.Records.net_entry) ->
          Alcotest.(check bool) "sub-millisecond local delay" true
            (e.Smart_proto.Records.delay < 0.05))
        record.Smart_proto.Records.entries)

let test_download_real () =
  (* massd over real sockets: request, connect, parallel block fetch *)
  let w = start_world () in
  Fun.protect
    ~finally:(fun () -> stop_world w)
    (fun () ->
      await_reports w ~count:3 ~timeout:10.0;
      match
        R.Client_io.request_sockets w.book ~wizard_host:"wiz" ~wanted:3
          ~requirement:"host_memory_total > 1\n" ()
      with
      | Error e -> Alcotest.failf "request failed: %a" Smart_core.Client.pp_error e
      | Ok connected ->
        Alcotest.(check int) "three servers" 3 (List.length connected);
        let stats =
          R.Client_io.download ~connected ~data_kb:2048 ~blk_kb:128
        in
        Alcotest.(check int) "all bytes" (2048 * 1024)
          stats.R.Client_io.total_bytes;
        let blocks =
          List.fold_left (fun acc (_, b) -> acc + b) 0
            stats.R.Client_io.per_server
        in
        Alcotest.(check int) "16 blocks fetched" 16 blocks;
        Alcotest.(check bool) "positive throughput" true
          (stats.R.Client_io.throughput > 0.0);
        R.Client_io.close_all connected)

(* The daemons all run in this process and the monitor dials the wizard
   for every transmit, so a single /proc/self/fd sample can catch a
   short-lived socket mid-flight.  Transient fds only ever inflate the
   count; the minimum over spaced samples is the steady state. *)
let open_fd_count () =
  let sample () = Array.length (Sys.readdir "/proc/self/fd") in
  let best = ref (sample ()) in
  for _ = 1 to 9 do
    Thread.delay 0.05;
    let n = sample () in
    if n < !best then best := n
  done;
  !best

let test_fd_leak_regression () =
  (* every socket the client opens is closed again — including the
     candidates it dials but then skips (refused connects, trimmed
     surplus).  Counting /proc/self/fd before and after catches any
     regression of the cleanup paths. *)
  if not (Sys.file_exists "/proc/self/fd") then ()
  else
    let w = start_world () in
    Fun.protect
      ~finally:(fun () -> stop_world w)
      (fun () ->
        await_reports w ~count:3 ~timeout:10.0;
        (* kill one advertised server so its connect is refused: the
           dialing loop must discard that socket, not leak it *)
        (match w.services with
        | _ :: _ :: gamma :: _ -> R.Service.stop gamma
        | _ -> Alcotest.fail "expected three services");
        let before = open_fd_count () in
        for _ = 1 to 5 do
          match
            R.Client_io.request_sockets w.book ~wizard_host:"wiz" ~wanted:3
              ~requirement:"host_memory_total > 1\n" ()
          with
          | Ok connected -> R.Client_io.close_all connected
          | Error _ -> ()
        done;
        let after = open_fd_count () in
        Alcotest.(check int) "no file descriptors leaked" before after)

let test_distributed_mode_real () =
  let w =
    start_world ~mode:Smart_core.Transmitter.Distributed
      ~wizard_mode:
        (Smart_core.Wizard.Distributed
           {
             transmitters =
               [
                 {
                   Smart_core.Output.host = "mon";
                   port = Smart_proto.Ports.transmitter;
                 };
               ];
             freshness_timeout = 3.0;
           })
      ()
  in
  Fun.protect
    ~finally:(fun () -> stop_world w)
    (fun () ->
      (* give the probes a moment to populate the monitor side *)
      Thread.delay 1.0;
      match
        R.Client_io.request_servers w.book ~timeout:5.0 ~wizard_host:"wiz"
          ~wanted:1 ~requirement:"host_memory_total > 1\n" ()
      with
      | Ok servers ->
        Alcotest.(check bool) "answered after pull" true (servers <> [])
      | Error e ->
        Alcotest.failf "distributed request failed: %a"
          Smart_core.Client.pp_error e)

(* Admission buckets key on the requester's IP address: with one token
   per requester and practically no refill, a second request from
   127.0.0.1 is shed while 127.0.0.2 still gets its first one through.
   Each request leaves from a socket bound to the given address. *)
let test_admission_per_requester_ip () =
  let book = R.Addr_book.create () in
  ignore (R.Addr_book.register_loopback book ~host:"wiz");
  let wizard =
    R.Wizard_daemon.create book
      {
        R.Wizard_daemon.host = "wiz";
        mode = Smart_core.Wizard.Centralized;
        staleness_threshold = infinity;
        admission =
          Some
            {
              Smart_core.Wizard.rate = 0.001;
              burst = 1.;
              max_delay = 0.;
              max_clients = 16;
            };
      }
  in
  R.Wizard_daemon.start wizard;
  Fun.protect
    ~finally:(fun () -> R.Wizard_daemon.stop wizard)
    (fun () ->
      let to_ =
        match
          R.Addr_book.resolve book ~host:"wiz" ~port:Smart_proto.Ports.wizard
        with
        | Some addr -> addr
        | None -> Alcotest.fail "wizard unresolvable"
      in
      let client =
        Smart_core.Client.create ~rng:(Smart_util.Prng.create ~seed:5) ()
      in
      let rejected ip =
        let socket = R.Udp_io.bind_port ~addr:(Unix.inet_addr_of_string ip) 0 in
        Fun.protect
          ~finally:(fun () -> R.Udp_io.stop socket)
          (fun () ->
            let request =
              Smart_core.Client.make_request client ~wanted:1
                ~option:Smart_proto.Wizard_msg.Accept_partial
                ~requirement:"host_memory_total > 1\n"
            in
            ignore
              (R.Udp_io.send socket ~to_
                 (Smart_proto.Wizard_msg.encode_request request));
            match R.Udp_io.recv_timeout socket ~timeout:5.0 with
            | None -> Alcotest.failf "no reply to %s" ip
            | Some (_, data) ->
              (match Smart_proto.Wizard_msg.decode_reply data with
              | Ok reply -> reply.Smart_proto.Wizard_msg.rejected
              | Error e -> Alcotest.failf "bad reply to %s: %s" ip e))
      in
      Alcotest.(check bool) "127.0.0.1 admitted" false (rejected "127.0.0.1");
      Alcotest.(check bool) "127.0.0.1 again rejected" true
        (rejected "127.0.0.1");
      Alcotest.(check bool) "127.0.0.2 admitted" false (rejected "127.0.0.2"))

(* One daemon of each kind answers the SMART-METRICS magic on its
   existing socket (wizard request port, transmitter pull port, probe
   echo port) with its own registry dump. *)
let test_metrics_scrape_real () =
  let contains ~affix s =
    let n = String.length affix and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
    n = 0 || go 0
  in
  let w = start_world () in
  Fun.protect
    ~finally:(fun () -> stop_world w)
    (fun () ->
      await_reports w ~count:3 ~timeout:10.0;
      (* move the wizard-side counters before scraping *)
      (match
         R.Client_io.request_servers w.book ~timeout:5.0 ~wizard_host:"wiz"
           ~wanted:1 ~requirement:"host_memory_total > 1\n" ()
       with
      | Ok _ -> ()
      | Error e ->
        Alcotest.failf "request before scrape failed: %a"
          Smart_core.Client.pp_error e);
      let scrape ?format host port =
        match R.Client_io.scrape_metrics ?format w.book ~host ~port () with
        | Ok dump -> dump
        | Error reason -> Alcotest.failf "scrape %s failed: %s" host reason
      in
      let wiz = scrape "wiz" Smart_proto.Ports.wizard in
      Alcotest.(check bool) "wizard requests counted" true
        (contains ~affix:"wizard.requests_total counter 1" wiz);
      Alcotest.(check bool) "receiver frames in wizard dump" true
        (contains ~affix:"receiver.frames_total" wiz);
      Alcotest.(check bool) "latency histogram in wizard dump" true
        (contains ~affix:"wizard.request_latency_seconds" wiz);
      let mon = scrape "mon" Smart_proto.Ports.transmitter in
      Alcotest.(check bool) "sysmon reports in monitor dump" true
        (contains ~affix:"sysmon.reports_total" mon);
      Alcotest.(check bool) "transmitter frames in monitor dump" true
        (contains ~affix:"transmitter.frames_total" mon);
      let probe = scrape "alpha" Smart_proto.Ports.probe in
      Alcotest.(check bool) "probe reports in probe dump" true
        (contains ~affix:"probe.reports_total" probe);
      let wiz_json =
        scrape ~format:Smart_proto.Metrics_msg.Json "wiz"
          Smart_proto.Ports.wizard
      in
      Alcotest.(check bool) "json dump quotes metric names" true
        (contains ~affix:"\"wizard.requests_total\"" wiz_json))

(* Each daemon's flight recorder answers the SMART-TRACE magic on the
   same sockets: after live traffic, all three dumps are non-empty and
   name the spans their components record. *)
let test_trace_scrape_real () =
  let contains ~affix s =
    let n = String.length affix and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
    n = 0 || go 0
  in
  let w = start_world () in
  Fun.protect
    ~finally:(fun () -> stop_world w)
    (fun () ->
      await_reports w ~count:3 ~timeout:10.0;
      (* drive the request path so the wizard ring has a span tree *)
      (match
         R.Client_io.request_servers w.book ~timeout:5.0 ~wizard_host:"wiz"
           ~wanted:1 ~requirement:"host_memory_total > 1\n" ()
       with
      | Ok _ -> ()
      | Error e ->
        Alcotest.failf "request before scrape failed: %a"
          Smart_core.Client.pp_error e);
      let scrape ?format host port =
        match R.Client_io.scrape_trace ?format w.book ~host ~port () with
        | Ok dump -> dump
        | Error reason -> Alcotest.failf "trace scrape %s failed: %s" host reason
      in
      let wiz = scrape "wiz" Smart_proto.Ports.wizard in
      Alcotest.(check bool) "wizard dump non-empty" true (String.length wiz > 0);
      Alcotest.(check bool) "wizard.request span recorded" true
        (contains ~affix:"wizard.request" wiz);
      Alcotest.(check bool) "receiver.commit span recorded" true
        (contains ~affix:"receiver.commit" wiz);
      let mon = scrape "mon" Smart_proto.Ports.transmitter in
      Alcotest.(check bool) "monitor dump non-empty" true (String.length mon > 0);
      Alcotest.(check bool) "sysmon.ingest span recorded" true
        (contains ~affix:"sysmon.ingest" mon);
      Alcotest.(check bool) "transmitter.push span recorded" true
        (contains ~affix:"transmitter.push" mon);
      let probe = scrape "alpha" Smart_proto.Ports.probe in
      Alcotest.(check bool) "probe dump non-empty" true (String.length probe > 0);
      Alcotest.(check bool) "probe.tick span recorded" true
        (contains ~affix:"probe.tick" probe);
      let wiz_json =
        scrape ~format:Smart_proto.Trace_msg.Json "wiz" Smart_proto.Ports.wizard
      in
      Alcotest.(check bool) "json dump is a chrome trace" true
        (contains ~affix:"\"ph\":\"X\"" wiz_json);
      Alcotest.(check bool) "json dump names the span" true
        (contains ~affix:"wizard.request" wiz_json))

let () =
  Alcotest.run "smart_realnet"
    [
      ( "units",
        [
          Alcotest.test_case "addr book" `Quick test_addr_book;
          Alcotest.test_case "proc reader" `Quick test_proc_reader;
          Alcotest.test_case "proc reader missing" `Quick
            test_proc_reader_missing_files;
          Alcotest.test_case "addr book reverse" `Quick test_addr_book_reverse;
          Alcotest.test_case "service protocol" `Quick test_service_protocol;
          Alcotest.test_case "udp io round trip" `Quick test_udp_io_roundtrip;
          Alcotest.test_case "udp io timeout" `Quick test_udp_io_recv_timeout;
        ] );
      ( "integration",
        [
          Alcotest.test_case "request sockets end-to-end" `Slow
            test_end_to_end_request_sockets;
          Alcotest.test_case "security filter" `Slow test_security_filter_real;
          Alcotest.test_case "strict option" `Slow test_strict_option_real;
          Alcotest.test_case "netmon echo probing" `Slow
            test_netmon_real_probing;
          Alcotest.test_case "massd download" `Slow test_download_real;
          Alcotest.test_case "fd leak regression" `Slow
            test_fd_leak_regression;
          Alcotest.test_case "distributed mode" `Slow test_distributed_mode_real;
          Alcotest.test_case "admission per requester ip" `Slow
            test_admission_per_requester_ip;
          Alcotest.test_case "metrics scrape" `Slow test_metrics_scrape_real;
          Alcotest.test_case "trace scrape" `Slow test_trace_scrape_real;
        ] );
    ]
