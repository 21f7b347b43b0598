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

(* A pinned book answers from its entries and IP literals only; a daemon
   binds its host's registered address, or the wildcard without one. *)
let test_addr_book_pin () =
  let book = R.Addr_book.create () in
  let shift = R.Addr_book.register_loopback book ~host:"a" in
  let pinned = R.Addr_book.pin book ~hosts:[ "a"; "10.1.2.3" ] in
  let show = function
    | Some (Unix.ADDR_INET (addr, port)) ->
      Printf.sprintf "%s:%d" (Unix.string_of_inet_addr addr) port
    | Some (Unix.ADDR_UNIX path) -> path
    | None -> "none"
  in
  Alcotest.(check string) "registered host keeps its shift"
    (Printf.sprintf "127.0.0.1:%d" (80 + shift))
    (show (R.Addr_book.resolve pinned ~host:"a" ~port:80));
  Alcotest.(check string) "an IP literal names itself" "10.9.9.9:7"
    (show (R.Addr_book.resolve pinned ~host:"10.9.9.9" ~port:7));
  Alcotest.(check string) "any other name is not looked up" "none"
    (show (R.Addr_book.resolve pinned ~host:"b" ~port:80));
  Alcotest.(check (list string)) "bind addresses" [ "127.0.0.1"; "0.0.0.0" ]
    (List.map
       (fun host -> Unix.string_of_inet_addr (R.Addr_book.bind_addr book ~host))
       [ "a"; "b" ])

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

(* A reader whose every /proc file is missing. *)
let missing_proc =
  {
    R.Proc_reader.loadavg_path = "/nonexistent/loadavg";
    stat_path = "/nonexistent/stat";
    meminfo_path = "/nonexistent/meminfo";
    netdev_path = "/nonexistent/netdev";
    cpuinfo_path = "/nonexistent/cpuinfo";
  }

let test_proc_reader_missing_files () =
  let t = missing_proc in
  Alcotest.(check bool) "missing files error" true
    (Result.is_error (R.Proc_reader.snapshot t));
  Alcotest.(check bool) "no bogomips" true (R.Proc_reader.bogomips t = None)

(* A UDP port that is free at the moment of the call. *)
let free_udp_port () =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port =
    match Unix.getsockname s with
    | Unix.ADDR_INET (_, port) -> port
    | Unix.ADDR_UNIX _ -> Alcotest.fail "not an inet socket"
  in
  Unix.close s;
  port

let test_udp_io_roundtrip () =
  let loop = R.Loop.create () in
  let port = free_udp_port () in
  let server = R.Udp_io.bind_port port in
  let to_ = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
  let got = ref None in
  R.Udp_io.serve loop server (fun ~now:_ ~from:_ data -> got := Some data);
  R.Loop.start loop;
  let client = R.Udp_io.bind_port 0 in
  Alcotest.(check bool) "send ok" true (R.Udp_io.send client ~to_ "ping!");
  let deadline = Unix.gettimeofday () +. 2.0 in
  while !got = None && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  Alcotest.(check (option string)) "delivered" (Some "ping!") !got;
  R.Udp_io.stop client;
  R.Loop.stop loop

(* Read exactly [n] bytes into [buf]; [false] on EOF or error. *)
let read_exact fd buf n =
  let rec go off =
    if off >= n then true
    else
      match Unix.read fd buf off (n - off) with
      | 0 -> false
      | read -> go (off + read)
      | exception Unix.Unix_error (_, _, _) -> false
  in
  go 0

let test_service_protocol () =
  let book = R.Addr_book.create () in
  ignore (R.Addr_book.register_loopback book ~host:"svc");
  let service = R.Service.create book ~name:"svc" in
  R.Service.start service;
  Fun.protect
    ~finally:(fun () -> R.Service.stop service)
    (fun () ->
      match
        Option.bind
          (R.Addr_book.resolve book ~host:"svc" ~port:Smart_proto.Ports.service)
          (R.Perform.connect ~timeout:(-1.0))
      with
      | None -> Alcotest.fail "connect failed"
      | Some fd ->
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
          (read_exact fd buf 5);
        R.Service.write_line fd "BYE";
        Unix.close fd)

(* A second stop must leave alone the descriptor number the first one
   freed: sockets opened in between take it. *)
let test_service_stop_twice () =
  let book = R.Addr_book.create () in
  ignore (R.Addr_book.register_loopback book ~host:"svc");
  let service = R.Service.create book ~name:"svc" in
  R.Service.start service;
  R.Service.stop service;
  let sockets =
    List.init 4 (fun _ -> Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0)
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun s -> try Unix.close s with Unix.Unix_error (_, _, _) -> ())
        sockets)
    (fun () ->
      R.Service.stop service;
      List.iter
        (fun s ->
          Alcotest.(check bool) "socket opened after the first stop still open"
            true
            (match Unix.fstat s with
            | _ -> true
            | exception Unix.Unix_error (Unix.EBADF, _, _) -> false))
        sockets)

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

let world_hosts = [ "mon"; "wiz"; "alpha"; "beta"; "gamma" ]

(* The world's hosts on 127.0.0.1, each with its own port shift. *)
let shifted_book () =
  let book = R.Addr_book.create () in
  List.iter
    (fun h -> ignore (R.Addr_book.register_loopback book ~host:h))
    world_hosts;
  book

let start_world ?(mode = Smart_core.Transmitter.Centralized)
    ?(wizard_mode = Smart_core.Wizard.Centralized) ?(seclog = "")
    ?(book = shifted_book ()) () =
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

let await ~timeout ready =
  let deadline = Unix.gettimeofday () +. timeout in
  while (not (ready ())) && Unix.gettimeofday () < deadline do
    Thread.delay 0.02
  done

(* How many servers the wizard on [wizard_host] names for a requirement
   every pushed host meets, asking for [count]: the test learns what the
   daemon holds through its request port, as any client does, never by
   reading the database its loop writes. *)
let servers_known book ~wizard_host ~count =
  match
    R.Client_io.request_servers book ~timeout:0.5 ~wizard_host ~wanted:count
      ~requirement:"host_memory_total > 0\n" ()
  with
  | Ok servers -> List.length servers
  | Error _ -> 0

let await_servers book ~wizard_host ~count ~timeout =
  await ~timeout (fun () -> servers_known book ~wizard_host ~count >= count)

let await_reports w ~count ~timeout =
  await_servers w.book ~wizard_host:"wiz" ~count ~timeout

(* One counter or gauge of a daemon's registry, read by a scrape. *)
let scraped book ~host ~port name =
  match R.Client_io.scrape_metrics book ~host ~port () with
  | Error reason -> Alcotest.failf "scrape failed: %s" reason
  | Ok dump ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ' ' line with
        | [ n; ("counter" | "gauge"); v ] when String.equal n name ->
          float_of_string v
        | _ -> acc)
      0.0
      (String.split_on_char '\n' dump)

let test_end_to_end_request_sockets () =
  let w = start_world () in
  Fun.protect
    ~finally:(fun () -> stop_world w)
    (fun () ->
      await_reports w ~count:3 ~timeout:10.0;
      Alcotest.(check int) "all three servers visible" 3
        (servers_known w.book ~wizard_host:"wiz" ~count:3);
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

(* The §5.3.2 massive download over real sockets: every connected
   server streams one block at a time ([GET <bytes>], {!R.Service}'s
   protocol, one thread each); a server that finishes self-schedules the
   next block from the shared queue, so fast servers carry more of the
   file.  Returns the blocks fetched per server. *)
let download ~connected ~data_kb ~blk_kb =
  let total_bytes = data_kb * 1024 in
  let block_bytes = blk_kb * 1024 in
  let total_blocks = (data_kb + blk_kb - 1) / blk_kb in
  let queue = ref 0 in
  let fetched = Hashtbl.create 8 in
  let mutex = Mutex.create () in
  let next_block () =
    Mutex.protect mutex (fun () ->
        if !queue >= total_blocks then None
        else begin
          let index = !queue in
          incr queue;
          Some
            (if index = total_blocks - 1 then
               max 1 (total_bytes - ((total_blocks - 1) * block_bytes))
             else block_bytes)
        end)
  in
  let note host =
    Mutex.protect mutex (fun () ->
        Hashtbl.replace fetched host
          (1 + Option.value ~default:0 (Hashtbl.find_opt fetched host)))
  in
  let worker { R.Client_io.host; socket } =
    let buf = Bytes.create 65536 in
    let rec recv remaining =
      remaining <= 0
      ||
      let want = min remaining (Bytes.length buf) in
      read_exact socket buf want && recv (remaining - want)
    in
    let rec go () =
      match next_block () with
      | None -> ()
      | Some bytes ->
        R.Service.write_line socket (Printf.sprintf "GET %d" bytes);
        if recv bytes then begin
          note host;
          go ()
        end
    in
    go ()
  in
  List.iter Thread.join
    (List.map (fun c -> Thread.create worker c) connected);
  List.map
    (fun { R.Client_io.host; _ } ->
      (host, Option.value ~default:0 (Hashtbl.find_opt fetched host)))
    connected

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
        let per_server = download ~connected ~data_kb:2048 ~blk_kb:128 in
        let blocks = List.fold_left (fun acc (_, b) -> acc + b) 0 per_server in
        Alcotest.(check int) "16 blocks fetched" 16 blocks;
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
        let request () =
          match
            R.Client_io.request_sockets w.book ~wizard_host:"wiz" ~wanted:3
              ~requirement:"host_memory_total > 1\n" ()
          with
          | Ok connected -> R.Client_io.close_all connected
          | Error _ -> ()
        in
        (* a warm-up call first: [before] then counts the endpoint the
           client keeps open between calls *)
        request ();
        let before = open_fd_count () in
        for _ = 1 to 5 do
          request ()
        done;
        let after = open_fd_count () in
        Alcotest.(check int) "no file descriptors leaked" before after)

let test_distributed_mode_real () =
  let w =
    start_world ~mode:Smart_core.Transmitter.Distributed
      ~wizard_mode:
        (Smart_core.Wizard.Distributed
           [
             {
               Smart_core.Output.host = "mon";
               port = Smart_proto.Ports.transmitter;
             };
           ])
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

(* A stand-in wizard: a socket on loopback host "wiz"'s request port,
   and the book that names it. *)
let stand_in_wizard () =
  let book = R.Addr_book.create () in
  ignore (R.Addr_book.register_loopback book ~host:"wiz");
  let port =
    match R.Addr_book.resolve book ~host:"wiz" ~port:Smart_proto.Ports.wizard with
    | Some (Unix.ADDR_INET (_, port)) -> port
    | _ -> Alcotest.fail "wizard unresolvable"
  in
  (book, R.Udp_io.bind_port ~addr:Unix.inet_addr_loopback port)

let reply ?(servers = [ "alpha" ]) seq =
  Smart_proto.Wizard_msg.encode_reply
    { Smart_proto.Wizard_msg.seq; servers; degraded = false; rejected = false }

(* The next request the stand-in receives within 5 s: its sender and
   sequence number. *)
let next_request wizard =
  match R.Udp_io.recv_timeout wizard ~timeout:5.0 with
  | None -> None
  | Some (from, data) ->
    (match Smart_proto.Wizard_msg.decode_request data with
    | Ok request -> Some (from, request.Smart_proto.Wizard_msg.seq)
    | Error _ -> None)

let answer_next wizard =
  match next_request wizard with
  | None -> ()
  | Some (from, seq) -> ignore (R.Udp_io.send wizard ~to_:from (reply seq))

let call_stand_in ?metrics ?(timeout = 1.0) ?(retries = 2)
    ?(backoff = Smart_util.Backoff.policy ~base:0.1 ~jitter:0.0 ()) book =
  R.Client_io.request_servers book ~timeout ~retries ~backoff ?metrics
    ~wizard_host:"wiz" ~wanted:1 ~requirement:"host_memory_total > 1\n" ()

(* [call ()] while a thread runs [stand_in ()]; the stand-in socket
   closes after both. *)
let with_stand_in wizard stand_in call =
  Fun.protect
    ~finally:(fun () -> R.Udp_io.stop wizard)
    (fun () ->
      let thread = Thread.create stand_in () in
      let result = call () in
      Thread.join thread;
      result)

let check_answered what result =
  match result with
  | Ok servers -> Alcotest.(check (list string)) what [ "alpha" ] servers
  | Error e -> Alcotest.failf "%s: %a" what Smart_core.Client.pp_error e

let counter metrics name = Smart_util.Metrics.counter_value metrics name

(* A stand-in wizard socket drops the first request datagram and
   answers the retransmit twice: first for another sequence number, then
   for the request's own.  The client waits through the foreign reply
   and takes the matching one. *)
let test_request_retransmit () =
  let book, wizard = stand_in_wizard () in
  let stand_in () =
    match next_request wizard with
    | None -> ()
    | Some _dropped ->
      (match next_request wizard with
      | None -> ()
      | Some (from, seq) ->
        ignore (R.Udp_io.send wizard ~to_:from (reply (seq + 1)));
        ignore (R.Udp_io.send wizard ~to_:from (reply seq)))
  in
  let metrics = Smart_util.Metrics.create () in
  check_answered "answered"
    (with_stand_in wizard stand_in (fun () -> call_stand_in ~metrics book));
  Alcotest.(check int) "one retransmit" 1
    (counter metrics "client.retries_total");
  Alcotest.(check int) "foreign reply counted" 1
    (counter metrics "client.reply_errors_total")

(* The stand-in answers with an empty datagram first and the reply
   [delay] seconds later. *)
let empty_then_reply wizard ~delay () =
  match next_request wizard with
  | None -> ()
  | Some (from, seq) ->
    ignore (R.Udp_io.send wizard ~to_:from "");
    Thread.delay delay;
    ignore (R.Udp_io.send wizard ~to_:from (reply seq))

(* An empty datagram is not the end of a receive window: the reply 20 ms
   behind it, inside the first 100 ms window, is taken without a
   retransmit. *)
let test_empty_datagram_no_retransmit () =
  let book, wizard = stand_in_wizard () in
  let metrics = Smart_util.Metrics.create () in
  check_answered "answered"
    (with_stand_in wizard
       (empty_then_reply wizard ~delay:0.02)
       (fun () -> call_stand_in ~metrics book));
  Alcotest.(check int) "no retransmit" 0
    (counter metrics "client.retries_total")

(* Nor is it a timeout: a request sent once, with a 0.5 s window, waits
   through the empty datagram for its reply. *)
let test_empty_datagram_no_timeout () =
  let book, wizard = stand_in_wizard () in
  check_answered "answered"
    (with_stand_in wizard
       (empty_then_reply wizard ~delay:0.02)
       (fun () ->
         call_stand_in ~timeout:0.5 ~retries:0
           ~backoff:(Smart_util.Backoff.policy ~base:0.5 ~jitter:0.0 ())
           book))

(* Sequential calls share one kept endpoint: the stand-in sees every
   request of 21 calls come from one source port, and the 20 after the
   warm-up leave the descriptor count where the warm-up left it. *)
let test_endpoint_kept () =
  if Sys.file_exists "/proc/self/fd" then begin
    let book, wizard = stand_in_wizard () in
    let ports = ref [] in
    let stand_in n () =
      for _ = 1 to n do
        match next_request wizard with
        | None -> ()
        | Some ((Unix.ADDR_INET (_, port) as from), seq) ->
          ports := port :: !ports;
          ignore (R.Udp_io.send wizard ~to_:from (reply seq))
        | Some (Unix.ADDR_UNIX _, _) -> ()
      done
    in
    let calls n () = List.init n (fun _ -> call_stand_in book) in
    let before, results, after =
      with_stand_in wizard (stand_in 21) (fun () ->
          List.iter (check_answered "warm-up") (calls 1 ());
          let before = open_fd_count () in
          let results = calls 20 () in
          (before, results, open_fd_count ()))
    in
    List.iter (check_answered "answered") results;
    Alcotest.(check int) "requests seen" 21 (List.length !ports);
    Alcotest.(check (list int)) "one source port"
      [ List.hd !ports ]
      (List.sort_uniq compare !ports);
    Alcotest.(check int) "open descriptors" before after
  end

(* Nothing that reaches an idle endpoint reaches the next call: neither
   the reply to a call that had already timed out nor a junk datagram.
   Each next call takes its own answer, and its registry counts no
   rejected reply. *)
let test_idle_endpoint_drained () =
  let book, wizard = stand_in_wizard () in
  let answered_after stray =
    let metrics = Smart_util.Metrics.create () in
    stray ();
    (* loopback delivers at once; the pause is slack *)
    Thread.delay 0.05;
    let thread = Thread.create (fun () -> answer_next wizard) () in
    let result = call_stand_in ~metrics book in
    Thread.join thread;
    check_answered "its own answer" result;
    Alcotest.(check int) "no reply rejected" 0
      (counter metrics "client.reply_errors_total")
  in
  Fun.protect
    ~finally:(fun () -> R.Udp_io.stop wizard)
    (fun () ->
      (* the stand-in stays silent through the first call's window *)
      (match
         call_stand_in ~timeout:0.1 ~retries:0
           ~backoff:(Smart_util.Backoff.policy ~base:0.1 ~jitter:0.0 ())
           book
       with
      | Error Smart_core.Client.Timeout -> ()
      | Ok _ -> Alcotest.fail "answered by a silent stand-in"
      | Error e -> Alcotest.failf "first call: %a" Smart_core.Client.pp_error e);
      let endpoint, seq =
        match next_request wizard with
        | Some request -> request
        | None -> Alcotest.fail "the first call sent nothing"
      in
      answered_after (fun () ->
          ignore
            (R.Udp_io.send wizard ~to_:endpoint
               (reply ~servers:[ "late" ] seq)));
      answered_after (fun () ->
          ignore (R.Udp_io.send wizard ~to_:endpoint "junk")))

(* A call without [?rng] draws from its endpoint's generator: two calls
   back to back send different sequence numbers. *)
let test_calls_draw_fresh_sequence_numbers () =
  let book, wizard = stand_in_wizard () in
  let seqs = ref [] in
  let stand_in () =
    for _ = 1 to 2 do
      match next_request wizard with
      | None -> ()
      | Some (from, seq) ->
        seqs := seq :: !seqs;
        ignore (R.Udp_io.send wizard ~to_:from (reply seq))
    done
  in
  let results =
    with_stand_in wizard stand_in (fun () ->
        let first = call_stand_in book in
        [ first; call_stand_in book ])
  in
  List.iter (check_answered "answered") results;
  match !seqs with
  | [ second; first ] ->
    Alcotest.(check bool)
      (Printf.sprintf "sequence numbers %d and %d differ" first second)
      true (first <> second)
  | seqs -> Alcotest.failf "stand-in saw %d requests" (List.length seqs)

(* A wizard daemon alone on loopback host "wiz", not yet started. *)
let lone_wizard ?admission () =
  let book = R.Addr_book.create () in
  ignore (R.Addr_book.register_loopback book ~host:"wiz");
  let wizard =
    R.Wizard_daemon.create book
      {
        R.Wizard_daemon.host = "wiz";
        mode = Smart_core.Wizard.Centralized;
        staleness_threshold = infinity;
        admission;
      }
  in
  (book, wizard)

(* A signal that interrupts a wait does not end it.  With SIGALRM
   caught every 50 ms, a 0.3 s receive on an idle socket waits out its
   window, and a call to a stand-in wizard that never answers ends in
   [Timeout] instead of raising [EINTR] (which closed the call's
   endpoint).  The 10 ms slack absorbs [select]'s truncation of its
   timeout to whole microseconds.  It runs before any daemon thread
   starts, so every signal lands on this thread; the timer and the
   signal's disposition are restored afterwards. *)
let test_wait_survives_signals () =
  let alarms = ref 0 in
  let previous =
    Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> incr alarms))
  in
  let every period = { Unix.it_interval = period; it_value = period } in
  ignore (Unix.setitimer Unix.ITIMER_REAL (every 0.05));
  let socket = R.Udp_io.bind_port 0 in
  let book, wizard = stand_in_wizard () in
  Fun.protect
    ~finally:(fun () ->
      ignore (Unix.setitimer Unix.ITIMER_REAL (every 0.0));
      Sys.set_signal Sys.sigalrm previous;
      R.Udp_io.stop socket;
      R.Udp_io.stop wizard)
    (fun () ->
      let waited f =
        let t0 = Unix.gettimeofday () in
        let result = f () in
        (result, Unix.gettimeofday () -. t0)
      in
      let got, elapsed =
        waited (fun () -> R.Udp_io.recv_timeout socket ~timeout:0.3)
      in
      Alcotest.(check bool) "nothing received" true (got = None);
      Alcotest.(check bool)
        (Printf.sprintf "receive waited out its window (%.3f s)" elapsed)
        true (elapsed >= 0.29);
      let result, elapsed =
        waited (fun () ->
            call_stand_in ~timeout:0.3 ~retries:0
              ~backoff:(Smart_util.Backoff.policy ~base:0.3 ~jitter:0.0 ())
              book)
      in
      (match result with
      | Error Smart_core.Client.Timeout -> ()
      | Ok _ -> Alcotest.fail "a silent wizard answered"
      | Error e -> Alcotest.failf "call: %a" Smart_core.Client.pp_error e);
      Alcotest.(check bool)
        (Printf.sprintf "call waited out its budget (%.3f s)" elapsed)
        true (elapsed >= 0.29);
      Alcotest.(check bool)
        (Printf.sprintf "signals arrived meanwhile (%d)" !alarms)
        true (!alarms >= 6))

(* Admission buckets key on the requester's IP address: with one token
   per requester and practically no refill, a second request from
   127.0.0.1 is shed while 127.0.0.2 still gets its first one through.
   Each request leaves from a socket bound to the given address. *)
let test_admission_per_requester_ip () =
  let book, wizard =
    lone_wizard
      ~admission:
        {
          Smart_core.Wizard.rate = 0.001;
          burst = 1.;
          max_delay = 0.;
          max_clients = 16;
        }
      ()
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

(* The words one smart-socket call allocates once the path is warm: a
   wizard daemon on 127.0.0.1 answering from its result cache, and a
   client whose endpoint, [Client] and retry schedule are kept between
   calls.  [Gc.minor_words] counts the domain's minor allocation, so the
   figure holds both threads: the client, [Udp_io], the daemon's loop
   and dispatch, the wizard's cache hit and the reply.  Bound: 246 words
   per call, the 234.2 this path measures plus 5%.  Before the path lost
   its glue (closures per batch and per call, the reply's trip through
   the address book, the sender sockaddr, the boxed generator state, the
   concatenated result key) it measured 354.8, 44% over the bound. *)
let call_words_bound = 246.0

let test_call_allocation_bound () =
  let book, wizard = lone_wizard () in
  let report i =
    {
      Smart_proto.Report.host = Printf.sprintf "srv%d" i;
      ip = Printf.sprintf "10.0.0.%d" (i + 1);
      load1 = 0.1 *. float_of_int i;
      load5 = 0.0;
      load15 = 0.0;
      cpu_user = 0.0;
      cpu_nice = 0.0;
      cpu_system = 0.0;
      cpu_free = 1.0 -. (0.1 *. float_of_int i);
      bogomips = 1000.0;
      mem_total = 256.0;
      mem_used = 0.0;
      mem_free = 128.0;
      mem_buffers = 0.0;
      mem_cached = 0.0;
      disk_rreq = 0.0;
      disk_rblocks = 0.0;
      disk_wreq = 0.0;
      disk_wblocks = 0.0;
      net_rbytes = 0.0;
      net_rpackets = 0.0;
      net_tbytes = 0.0;
      net_tpackets = 0.0;
    }
  in
  for i = 0 to 7 do
    Smart_core.Status_db.update_sys (R.Wizard_daemon.db wizard)
      { Smart_proto.Records.report = report i; updated_at = 0.0 }
  done;
  let texts =
    [| "host_cpu_free > 0.2\n"; "host_memory_total > 1\n";
       "host_cpu_free > 0.5\nhost_memory_free > 64\n" |]
  in
  let rng = Smart_util.Prng.create ~seed:7
  and metrics = Smart_util.Metrics.create () in
  let call i =
    match
      R.Client_io.request_servers ~rng ~metrics book ~wizard_host:"wiz"
        ~wanted:(1 + (i mod 4))
        ~requirement:texts.(i mod Array.length texts) ()
    with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "call %d: %a" i Smart_core.Client.pp_error e
  in
  R.Wizard_daemon.start wizard;
  Fun.protect
    ~finally:(fun () -> R.Wizard_daemon.stop wizard)
    (fun () ->
      for i = 0 to 199 do
        call i
      done;
      let calls = 2000 in
      let before = Gc.minor_words () in
      for i = 0 to calls - 1 do
        call i
      done;
      let per_call = (Gc.minor_words () -. before) /. float_of_int calls in
      Alcotest.(check bool)
        (Printf.sprintf "%.1f words per call, bound %.0f" per_call
           call_words_bound)
        true
        (per_call <= call_words_bound))

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
      let requests () =
        scraped w.book ~host:"wiz" ~port:Smart_proto.Ports.wizard
          "wizard.requests_total"
      in
      let asked = requests () in
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
      Alcotest.(check (float 0.0)) "wizard requests counted" (asked +. 1.0)
        (requests ());
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

(* Each daemon binds the address the book gives its host: a world whose
   hosts sit on distinct loopback addresses, unshifted, as one machine
   per host would (Linux routes all of 127/8 to lo).  Reports reach the
   wizard and a query answers. *)
let test_distinct_host_addresses () =
  let book = R.Addr_book.create () in
  List.iteri
    (fun i host ->
      R.Addr_book.register book ~host
        ~addr:(Unix.inet_addr_of_string (Printf.sprintf "127.0.43.%d" (i + 1)))
        ())
    world_hosts;
  let w = start_world ~book () in
  Fun.protect
    ~finally:(fun () -> stop_world w)
    (fun () ->
      await_reports w ~count:3 ~timeout:10.0;
      match
        R.Client_io.request_servers w.book ~timeout:5.0 ~wizard_host:"wiz"
          ~wanted:3 ~requirement:"host_memory_total > 1\n" ()
      with
      | Ok servers ->
        Alcotest.(check (list string)) "every server answered"
          [ "alpha"; "beta"; "gamma" ] (List.sort compare servers)
      | Error e -> Alcotest.failf "request failed: %a" Smart_core.Client.pp_error e)

(* A daemon resolves the peers it sends to when it is created: a monitor
   host the resolver rejects (a name with a space) fails [create]
   instead of dropping every report. *)
let test_unresolvable_peer_fails_create () =
  let book = R.Addr_book.create () in
  ignore (R.Addr_book.register_loopback book ~host:"alpha");
  match
    R.Probe_daemon.create book
      {
        R.Probe_daemon.host = "alpha";
        ip = "10.9.0.1";
        monitor_host = "no such host";
        interval = 1.0;
        proc = R.Proc_reader.default;
        iface = None;
      }
  with
  | exception Failure _ -> ()
  | probe ->
    R.Probe_daemon.stop probe;
    Alcotest.fail "create accepted a monitor host that does not resolve"

(* A wizard whose request port another socket holds fails to create,
   and closes again the receiver port it had bound first. *)
let test_bind_failure_closes_bound_ports () =
  let book = R.Addr_book.create () in
  let shift = R.Addr_book.register_loopback book ~host:"wiz" in
  let loopback port = Unix.ADDR_INET (Unix.inet_addr_loopback, port + shift) in
  let before = open_fd_count () in
  (* without SO_REUSEADDR, this socket keeps the daemon's bind out *)
  let held = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close held)
    (fun () ->
      Unix.bind held (loopback Smart_proto.Ports.wizard);
      match
        R.Wizard_daemon.create book
          {
            R.Wizard_daemon.host = "wiz";
            mode = Smart_core.Wizard.Centralized;
            staleness_threshold = infinity;
            admission = None;
          }
      with
      | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) -> ()
      | wizard ->
        R.Wizard_daemon.stop wizard;
        Alcotest.fail "create bound a port another socket holds");
  (* with SO_REUSEADDR, a connection an earlier daemon left in TIME_WAIT
     on the port does not keep this bind out, but a listening socket
     still does *)
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listener Unix.SO_REUSEADDR true;
  Fun.protect
    ~finally:(fun () -> Unix.close listener)
    (fun () ->
      match Unix.bind listener (loopback Smart_proto.Ports.receiver) with
      | () -> ()
      | exception Unix.Unix_error (e, _, _) ->
        Alcotest.failf "receiver port still held: %s" (Unix.error_message e));
  Alcotest.(check int) "no descriptor left open" before (open_fd_count ())

(* ------------------------------------------------------------------ *)
(* One scenario, simulated and on sockets                               *)
(* ------------------------------------------------------------------ *)

(* The same deployment through [Simdriver.deploy] and through loopback
   daemons: three servers report under one security log, pushes land,
   then requests whose answers do not depend on measured values.  Then
   helene goes silent (its node crashes, its probe daemon stops) until
   the monitor expires it, and every host is asked for again.  Both
   runs answer with the same host sets. *)
let test_simulated_and_real_agree () =
  let servers = [ "mimas"; "telesto"; "helene" ] in
  let seclog = "mimas 5\ntelesto 4\nhelene 1\n" in
  let requests =
    [
      ("every host", Smart_proto.Wizard_msg.Accept_partial, 3,
       "host_memory_total > 1\n");
      ("security filter", Smart_proto.Wizard_msg.Accept_partial, 3,
       "host_security_level >= 3\n");
      ("strict shortfall", Smart_proto.Wizard_msg.Strict, 4,
       "host_memory_total > 1\n");
    ]
  in
  let answer = function
    | Ok hosts -> String.concat "," (List.sort compare hosts)
    | Error (Smart_core.Client.Not_enough _) -> "not enough"
    | Error e -> Fmt.str "error: %a" Smart_core.Client.pp_error e
  in
  let every_host = List.hd requests in
  let simulated =
    let cluster = Smart_host.Testbed.icpp2005 () in
    let d =
      Smart_core.Simdriver.deploy
        ~config:{ Smart_core.Simdriver.default_config with security_log = seclog }
        cluster ~monitor:"dalmatian" ~wizard_host:"phoebe" ~servers
    in
    Smart_core.Simdriver.settle ~duration:8.0 d;
    let ask (_, option, wanted, requirement) =
      answer
        (Smart_core.Simdriver.request ~option d ~client:"sagit" ~wanted
           ~requirement)
    in
    let answers = List.map ask requests in
    (* three missed 2 s probe intervals expire helene *)
    Smart_core.Simdriver.install_faults d
      [
        {
          Smart_sim.Faults.at = Smart_host.Cluster.now cluster +. 0.1;
          action = Smart_sim.Faults.Crash_node "helene";
        };
      ];
    Smart_core.Simdriver.settle ~duration:10.0 d;
    answers @ [ ask every_host ]
  in
  let book = R.Addr_book.create () in
  List.iter
    (fun h -> ignore (R.Addr_book.register_loopback book ~host:h))
    ("dalmatian" :: "phoebe" :: servers);
  let wizard =
    R.Wizard_daemon.create book
      {
        R.Wizard_daemon.host = "phoebe";
        mode = Smart_core.Wizard.Centralized;
        staleness_threshold = infinity;
        admission = None;
      }
  in
  let monitor =
    R.Monitor_daemon.create book
      {
        R.Monitor_daemon.host = "dalmatian";
        wizard_host = "phoebe";
        mode = Smart_core.Transmitter.Centralized;
        probe_interval = 0.2;
        transmit_interval = 0.2;
        netmon_targets = [];
        security_log = seclog;
      }
  in
  let probes =
    List.map
      (fun host ->
        R.Probe_daemon.create book
          {
            R.Probe_daemon.host;
            ip = "10.9.0.1";
            monitor_host = "dalmatian";
            interval = 0.2;
            proc = R.Proc_reader.default;
            iface = None;
          })
      servers
  in
  R.Wizard_daemon.start wizard;
  R.Monitor_daemon.start monitor;
  List.iter R.Probe_daemon.start probes;
  let real =
    Fun.protect
      ~finally:(fun () ->
        List.iter R.Probe_daemon.stop probes;
        R.Monitor_daemon.stop monitor;
        R.Wizard_daemon.stop wizard)
      (fun () ->
        await_servers book ~wizard_host:"phoebe" ~count:3 ~timeout:10.0;
        (* one whole push (its three frames) after every server is in *)
        let frames () =
          scraped book ~host:"phoebe" ~port:Smart_proto.Ports.wizard
            "receiver.frames_total"
        in
        let seen = frames () in
        await ~timeout:5.0 (fun () -> frames () >= seen +. 3.0);
        let ask (_, option, wanted, requirement) =
          answer
            (R.Client_io.request_servers ~option ~timeout:5.0 book
               ~wizard_host:"phoebe" ~wanted ~requirement ())
        in
        let answers = List.map ask requests in
        R.Probe_daemon.stop (List.nth probes 2);
        let expired () =
          scraped book ~host:"dalmatian" ~port:Smart_proto.Ports.transmitter
            "sysmon.expired_total"
        in
        await ~timeout:5.0 (fun () -> expired () >= 1.0);
        (* the push after the expiry lands *)
        await ~timeout:5.0 (fun () ->
            String.equal (ask every_host) "mimas,telesto");
        answers @ [ ask every_host ])
  in
  Alcotest.(check (list string)) "the answers the scenario expects"
    [ "helene,mimas,telesto"; "mimas,telesto"; "not enough"; "mimas,telesto" ]
    simulated;
  List.iter2
    (fun name (sim, real) ->
      Alcotest.(check string) (name ^ ": sockets answer as simulated") sim real)
    (List.map (fun (name, _, _, _) -> name) requests @ [ "after expiry" ])
    (List.combine simulated real)

(* ------------------------------------------------------------------ *)
(* The daemons' event loops                                             *)
(* ------------------------------------------------------------------ *)

(* One monitor's push: a Sys_db frame carrying [host]'s report, sampled
   from this machine's /proc. *)
let sys_push ~host =
  let probe =
    Smart_core.Probe.create
      {
        Smart_core.Probe.host;
        ip = "10.9.9.9";
        bogomips = 1000.0;
        monitor =
          { Smart_core.Output.host = "mon"; port = Smart_proto.Ports.sysmon };
        iface = "lo";
      }
  in
  let report =
    match R.Proc_reader.snapshot R.Proc_reader.default with
    | Error e -> Alcotest.failf "snapshot: %s" e
    | Ok snapshot ->
      (match Smart_core.Probe.tick probe ~now:0.0 ~snapshot with
      | Ok (report, _) -> report
      | Error e -> Alcotest.failf "probe tick: %s" e)
  in
  Smart_proto.Frame.encode Smart_proto.Endian.Little
    {
      Smart_proto.Frame.payload_type = Smart_proto.Frame.Sys_db;
      data =
        Smart_proto.Records.encode_sys Smart_proto.Endian.Little
          { Smart_proto.Records.report; updated_at = Unix.gettimeofday () };
      trace = Smart_util.Tracelog.root;
    }

let connect_receiver book =
  match
    R.Addr_book.resolve book ~host:"wiz" ~port:Smart_proto.Ports.receiver
  with
  | None -> Alcotest.fail "receiver unresolvable"
  | Some addr ->
    let socket = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect socket addr;
    socket

let write_all socket data =
  ignore (Unix.write_substring socket data 0 (String.length data))

(* Two monitors' pushes arrive on two connections in alternating 7-byte
   pieces: each connection keeps its own frame decoder, so both are
   applied, and closing both leaves no transmitter stream state. *)
let test_interleaved_transmitters () =
  let book, wizard = lone_wizard () in
  R.Wizard_daemon.start wizard;
  Fun.protect
    ~finally:(fun () -> R.Wizard_daemon.stop wizard)
    (fun () ->
      let pushes = [ sys_push ~host:"m1-srv"; sys_push ~host:"m2-srv" ] in
      let conns = List.map (fun _ -> connect_receiver book) pushes in
      let longest =
        List.fold_left (fun m p -> max m (String.length p)) 0 pushes
      in
      let piece = 7 in
      let off = ref 0 in
      while !off < longest do
        List.iter2
          (fun socket push ->
            let n = min piece (String.length push - !off) in
            if n > 0 then write_all socket (String.sub push !off n))
          conns pushes;
        Thread.delay 0.001;
        off := !off + piece
      done;
      await_servers book ~wizard_host:"wiz" ~count:2 ~timeout:5.0;
      Alcotest.(check int) "both pushes applied" 2
        (servers_known book ~wizard_host:"wiz" ~count:2);
      List.iter Unix.close conns;
      let transmitters_gone () =
        match
          R.Client_io.scrape_metrics book ~host:"wiz"
            ~port:Smart_proto.Ports.wizard ()
        with
        | Ok dump ->
          List.mem "receiver.transmitters gauge 0"
            (String.split_on_char '\n' dump)
        | Error _ -> false
      in
      await ~timeout:5.0 transmitters_gone;
      Alcotest.(check bool) "receiver.transmitters reads 0" true
        (transmitters_gone ()))

(* Stopping the wizard closes the transmitter connections it accepted:
   the far end of one left open sees EOF. *)
let test_stop_closes_transmitters () =
  let book, wizard = lone_wizard () in
  R.Wizard_daemon.start wizard;
  let conn = connect_receiver book in
  let eof =
    Fun.protect
      ~finally:(fun () -> Unix.close conn)
      (fun () ->
        Fun.protect
          ~finally:(fun () -> R.Wizard_daemon.stop wizard)
          (fun () ->
            (* applied, so the loop has accepted and drained it *)
            write_all conn (sys_push ~host:"m1-srv");
            await_servers book ~wizard_host:"wiz" ~count:1 ~timeout:5.0;
            Alcotest.(check int) "push applied" 1
              (servers_known book ~wizard_host:"wiz" ~count:1));
        match Unix.select [ conn ] [] [] 1.0 with
        | [], _, _ -> None
        | _ -> Some (Unix.read conn (Bytes.create 1) 0 1))
  in
  Alcotest.(check (option int)) "EOF within 1 s" (Some 0) eof

(* A book naming the loopback hosts the lone daemons below talk to. *)
let loopback_book () =
  let book = R.Addr_book.create () in
  List.iter
    (fun h -> ignore (R.Addr_book.register_loopback book ~host:h))
    [ "mon"; "wiz"; "alpha" ];
  book

let probe_daemon ?(proc = R.Proc_reader.default) ~interval book =
  R.Probe_daemon.create book
    {
      R.Probe_daemon.host = "alpha";
      ip = "10.9.0.1";
      monitor_host = "mon";
      interval;
      proc;
      iface = None;
    }

let monitor_daemon ~transmit_interval book =
  R.Monitor_daemon.create book
    {
      R.Monitor_daemon.host = "mon";
      wizard_host = "wiz";
      mode = Smart_core.Transmitter.Centralized;
      probe_interval = transmit_interval;
      transmit_interval;
      netmon_targets = [];
      security_log = "";
    }

(* A stop wakes the loop out of its wait for the next 5 s tick.  A
   netmon round published before the loop starts runs on the caller. *)
let test_stop_is_prompt () =
  let book = loopback_book () in
  let probe = probe_daemon ~interval:5.0 book in
  let monitor = monitor_daemon ~transmit_interval:5.0 book in
  Alcotest.(check string) "a round before start" "mon"
    (R.Monitor_daemon.refresh_netmon monitor).Smart_proto.Records.monitor;
  R.Probe_daemon.start probe;
  R.Monitor_daemon.start monitor;
  (* past the first tick, into the wait for the second *)
  Thread.delay 0.2;
  let timed stop =
    let t0 = Unix.gettimeofday () in
    stop ();
    Unix.gettimeofday () -. t0
  in
  let probe_s = timed (fun () -> R.Probe_daemon.stop probe) in
  let monitor_s = timed (fun () -> R.Monitor_daemon.stop monitor) in
  Alcotest.(check bool)
    (Printf.sprintf "probe stopped in %.3f s" probe_s)
    true (probe_s < 0.5);
  Alcotest.(check bool)
    (Printf.sprintf "monitor stopped in %.3f s" monitor_s)
    true (monitor_s < 0.5)

(* Each stop closes every descriptor its daemon opened: sockets, the
   loop's wake pipe and accepted transmitter connections. *)
let test_start_stop_cycles_release_fds () =
  if Sys.file_exists "/proc/self/fd" then begin
    let cycle () =
      let book = loopback_book () in
      let _, wizard = lone_wizard () in
      let monitor = monitor_daemon ~transmit_interval:0.05 book in
      let probe = probe_daemon ~interval:0.05 book in
      R.Wizard_daemon.start wizard;
      R.Monitor_daemon.start monitor;
      R.Probe_daemon.start probe;
      Thread.delay 0.1;
      R.Probe_daemon.stop probe;
      R.Monitor_daemon.stop monitor;
      R.Wizard_daemon.stop wizard
    in
    let before = open_fd_count () in
    for _ = 1 to 10 do
      cycle ()
    done;
    Alcotest.(check int) "open descriptors" before (open_fd_count ())
  end

(* A push to a wizard host whose kernel drops its SYNs (a full accept
   queue) fails within the push bound, into the failure hook the
   monitor feeds its resend queue from, instead of holding the loop for
   the kernel's connect timeout. *)
let test_push_bounded () =
  let book = loopback_book () in
  let receiver =
    match
      R.Addr_book.resolve book ~host:"wiz" ~port:Smart_proto.Ports.receiver
    with
    | Some addr -> addr
    | None -> Alcotest.fail "receiver unresolvable"
  in
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listener Unix.SO_REUSEADDR true;
  Unix.bind listener receiver;
  Unix.listen listener 0;
  let fillers =
    List.init 3 (fun _ ->
        let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.set_nonblock s;
        (try Unix.connect s receiver
         with Unix.Unix_error (Unix.EINPROGRESS, _, _) -> ());
        s)
  in
  let udp = R.Udp_io.bind_port 0 in
  Fun.protect
    ~finally:(fun () ->
      R.Udp_io.stop udp;
      List.iter Unix.close (listener :: fillers))
    (fun () ->
      Thread.delay 0.1;
      let t0 = Unix.gettimeofday () in
      let failed = ref None in
      R.Perform.outputs book ~udp
        ~on_stream_failure:(fun ~data ->
          failed := Some (data, Unix.gettimeofday () -. t0))
        [
          Smart_core.Output.Stream
            {
              dst =
                {
                  Smart_core.Output.host = "wiz";
                  port = Smart_proto.Ports.receiver;
                };
              data = "frame";
            };
        ];
      match !failed with
      | None -> Alcotest.fail "the push did not fail"
      | Some (data, elapsed) ->
        Alcotest.(check string) "undelivered bytes handed back" "frame" data;
        Alcotest.(check bool)
          (Printf.sprintf "failed after %.2f s" elapsed)
          true (elapsed < 2.0))

(* A candidate whose service port drops SYNs (a listener with a full
   accept queue, as in [test_push_bounded]) costs [request_sockets] the
   1 s connect bound, not the kernel's SYN retries: it is skipped and
   every other candidate is connected. *)
let test_request_sockets_bounded () =
  let w = start_world () in
  Fun.protect
    ~finally:(fun () -> stop_world w)
    (fun () ->
      await_reports w ~count:3 ~timeout:10.0;
      (match w.services with
      | _ :: _ :: gamma :: _ -> R.Service.stop gamma
      | _ -> Alcotest.fail "expected three services");
      let service =
        match
          R.Addr_book.resolve w.book ~host:"gamma"
            ~port:Smart_proto.Ports.service
        with
        | Some addr -> addr
        | None -> Alcotest.fail "gamma's service unresolvable"
      in
      let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt listener Unix.SO_REUSEADDR true;
      Unix.bind listener service;
      Unix.listen listener 0;
      let fillers =
        List.init 3 (fun _ ->
            let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
            Unix.set_nonblock s;
            (try Unix.connect s service
             with Unix.Unix_error (Unix.EINPROGRESS, _, _) -> ());
            s)
      in
      Fun.protect
        ~finally:(fun () -> List.iter Unix.close (listener :: fillers))
        (fun () ->
          Thread.delay 0.1;
          let t0 = Unix.gettimeofday () in
          let result =
            R.Client_io.request_sockets w.book ~wizard_host:"wiz" ~wanted:3
              ~requirement:"host_memory_total > 1\n" ()
          in
          let elapsed = Unix.gettimeofday () -. t0 in
          match result with
          | Error e ->
            Alcotest.failf "request failed: %a" Smart_core.Client.pp_error e
          | Ok connected ->
            R.Client_io.close_all connected;
            Alcotest.(check (list string)) "every other candidate connected"
              [ "alpha"; "beta" ]
              (List.sort compare
                 (List.map
                    (fun (c : R.Client_io.connected_server) ->
                      c.R.Client_io.host)
                    connected));
            Alcotest.(check bool)
              (Printf.sprintf "returned after %.2f s" elapsed)
              true (elapsed < 2.0)))

(* The monitor sweeps every probe interval, whatever its push interval:
   a probe that stops is expired within three silent 0.2 s intervals
   and a sweep, long before the 5 s push. *)
let test_sweep_every_probe_interval () =
  let book = loopback_book () in
  let monitor =
    R.Monitor_daemon.create book
      {
        R.Monitor_daemon.host = "mon";
        wizard_host = "wiz";
        mode = Smart_core.Transmitter.Centralized;
        probe_interval = 0.2;
        transmit_interval = 5.0;
        netmon_targets = [];
        security_log = "";
      }
  in
  let probe = probe_daemon ~interval:0.2 book in
  R.Monitor_daemon.start monitor;
  R.Probe_daemon.start probe;
  Fun.protect
    ~finally:(fun () ->
      R.Probe_daemon.stop probe;
      R.Monitor_daemon.stop monitor)
    (fun () ->
      let metric name =
        scraped book ~host:"mon" ~port:Smart_proto.Ports.transmitter name
      in
      await ~timeout:5.0 (fun () -> metric "sysmon.hosts" >= 1.0);
      Alcotest.(check (float 0.0)) "the probe is known" 1.0
        (metric "sysmon.hosts");
      R.Probe_daemon.stop probe;
      await ~timeout:1.5 (fun () -> metric "sysmon.expired_total" >= 1.0);
      Alcotest.(check (float 0.0)) "expired within 1.5 s of the stop" 1.0
        (metric "sysmon.expired_total"))

(* A probe daemon that cannot read /proc counts each lost tick where a
   scrape of its echo port sees it. *)
let test_probe_proc_failures_counted () =
  let book = loopback_book () in
  let probe = probe_daemon ~proc:missing_proc ~interval:0.05 book in
  R.Probe_daemon.start probe;
  Fun.protect
    ~finally:(fun () -> R.Probe_daemon.stop probe)
    (fun () ->
      let errors () =
        match
          R.Client_io.scrape_metrics book ~host:"alpha"
            ~port:Smart_proto.Ports.probe ()
        with
        | Error reason -> Alcotest.failf "scrape failed: %s" reason
        | Ok dump ->
          List.fold_left
            (fun acc line ->
              match String.split_on_char ' ' line with
              | [ "probe.errors_total"; "counter"; n ] -> int_of_string n
              | _ -> acc)
            0
            (String.split_on_char '\n' dump)
      in
      await ~timeout:5.0 (fun () -> errors () >= 1);
      Alcotest.(check bool) "probe.errors_total >= 1" true (errors () >= 1))

let () =
  Alcotest.run "smart_realnet"
    [
      ( "units",
        [
          Alcotest.test_case "addr book" `Quick test_addr_book;
          Alcotest.test_case "addr book pin" `Quick test_addr_book_pin;
          Alcotest.test_case "proc reader" `Quick test_proc_reader;
          Alcotest.test_case "proc reader missing" `Quick
            test_proc_reader_missing_files;
          Alcotest.test_case "service protocol" `Quick test_service_protocol;
          Alcotest.test_case "udp io round trip" `Quick test_udp_io_roundtrip;
          Alcotest.test_case "udp io timeout" `Quick test_udp_io_recv_timeout;
          Alcotest.test_case "waits survive signals" `Quick
            test_wait_survives_signals;
          Alcotest.test_case "service stop twice" `Quick test_service_stop_twice;
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
          Alcotest.test_case "request sockets bounded" `Slow
            test_request_sockets_bounded;
          Alcotest.test_case "distributed mode" `Slow test_distributed_mode_real;
          Alcotest.test_case "request retransmit" `Slow test_request_retransmit;
          Alcotest.test_case "empty datagram, no retransmit" `Slow
            test_empty_datagram_no_retransmit;
          Alcotest.test_case "empty datagram, no timeout" `Slow
            test_empty_datagram_no_timeout;
          Alcotest.test_case "endpoint kept between calls" `Slow
            test_endpoint_kept;
          Alcotest.test_case "idle endpoint drained" `Slow
            test_idle_endpoint_drained;
          Alcotest.test_case "calls draw fresh sequence numbers" `Slow
            test_calls_draw_fresh_sequence_numbers;
          Alcotest.test_case "admission per requester ip" `Slow
            test_admission_per_requester_ip;
          Alcotest.test_case "call allocation bounded" `Slow
            test_call_allocation_bound;
          Alcotest.test_case "metrics scrape" `Slow test_metrics_scrape_real;
          Alcotest.test_case "trace scrape" `Slow test_trace_scrape_real;
          Alcotest.test_case "hosts on distinct addresses" `Slow
            test_distinct_host_addresses;
          Alcotest.test_case "unresolvable peer fails create" `Quick
            test_unresolvable_peer_fails_create;
          Alcotest.test_case "bind failure closes bound ports" `Quick
            test_bind_failure_closes_bound_ports;
          Alcotest.test_case "simulated and real answers agree" `Slow
            test_simulated_and_real_agree;
        ] );
      ( "event loop",
        [
          Alcotest.test_case "interleaved transmitters" `Slow
            test_interleaved_transmitters;
          Alcotest.test_case "stop closes transmitters" `Slow
            test_stop_closes_transmitters;
          Alcotest.test_case "stop is prompt" `Slow test_stop_is_prompt;
          Alcotest.test_case "start/stop cycles release fds" `Slow
            test_start_stop_cycles_release_fds;
          Alcotest.test_case "push bounded" `Slow test_push_bounded;
          Alcotest.test_case "probe /proc failures counted" `Slow
            test_probe_proc_failures_counted;
          Alcotest.test_case "sweep every probe interval" `Slow
            test_sweep_every_probe_interval;
        ] );
    ]
