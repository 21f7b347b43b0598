(* The client library over real sockets (§3.6.2): send the request, wait
   for the matching reply with retransmit-and-backoff, then connect a TCP
   socket to each candidate's service port and hand the list to the
   caller. *)

type connected_server = { host : string; socket : Unix.file_descr }

let request_servers ?(option = Smart_proto.Wizard_msg.Accept_partial)
    ?(timeout = 2.0) ?(retries = 2)
    ?(backoff = Smart_util.Backoff.default) ?rng ?metrics book
    ~wizard_host ~wanted ~requirement () =
  let rng =
    match rng with
    | Some rng -> rng
    | None -> Smart_util.Prng.create ~seed:(Unix.getpid () + int_of_float (Unix.gettimeofday () *. 1e3))
  in
  let client = Smart_core.Client.create ?metrics ~rng () in
  let request =
    Smart_core.Client.make_request client ~wanted ~option ~requirement
  in
  match
    Addr_book.resolve book ~host:wizard_host ~port:Smart_proto.Ports.wizard
  with
  | None -> Error (Smart_core.Client.Malformed "unknown wizard host")
  | Some wizard_addr ->
    let socket = Udp_io.bind_port 0 in
    Fun.protect
      ~finally:(fun () -> Udp_io.stop socket)
      (fun () ->
        let data = Smart_proto.Wizard_msg.encode_request request in
        (* the per-attempt receive window grows with the shared backoff
           policy: same retry shape as the simulated client, real clock *)
        let boff = Smart_util.Backoff.create ~rng backoff in
        let sends = ref 0 in
        let finish result =
          Smart_core.Client.note_attempts client !sends;
          result
        in
        let rec attempt n =
          if n < 0 then finish (Error Smart_core.Client.Timeout)
          else begin
            incr sends;
            if !sends > 1 then Smart_core.Client.note_retry client;
            ignore (Udp_io.send socket ~to_:wizard_addr data);
            let window =
              Float.min timeout (Smart_util.Backoff.next boff)
            in
            wait n (Unix.gettimeofday () +. window)
          end
        and wait n deadline =
          let remaining = deadline -. Unix.gettimeofday () in
          if remaining <= 0.0 then attempt (n - 1)
          else
            match Udp_io.recv_timeout socket ~timeout:remaining with
            | None -> attempt (n - 1)
            | Some (_, reply)
              when Smart_core.Client.is_duplicate_reply client reply ->
              (* late answer to an earlier, completed request *)
              wait n deadline
            | Some (_, reply) ->
              (match Smart_core.Client.check_reply client request reply with
              | Ok servers -> finish (Ok servers)
              | Error (Smart_core.Client.Wrong_seq _) ->
                (* stale reply from an earlier attempt: keep waiting *)
                wait n deadline
              | Error _ as e -> finish e)
        in
        attempt retries)

(* One scrape: the [request] magic datagram out, the rendered dump
   back.  [port] picks the daemon — wizard request port, transmitter
   pull port or probe echo port all answer both kinds. *)
let scrape ~timeout book ~host ~port request =
  match Addr_book.resolve book ~host ~port with
  | None -> Error (Printf.sprintf "unknown host %s" host)
  | Some addr ->
    let socket = Udp_io.bind_port 0 in
    Fun.protect
      ~finally:(fun () -> Udp_io.stop socket)
      (fun () ->
        if not (Udp_io.send socket ~to_:addr request) then Error "send failed"
        else
          match Udp_io.recv_timeout socket ~timeout with
          | Some (_, dump) -> Ok dump
          | None -> Error "scrape timed out")

let scrape_metrics ?(timeout = 2.0) ?(format = Smart_proto.Metrics_msg.Text)
    book ~host ~port () =
  scrape ~timeout book ~host ~port
    (Smart_proto.Metrics_msg.encode_request format)

let scrape_trace ?(timeout = 2.0) ?(format = Smart_proto.Trace_msg.Text)
    book ~host ~port () =
  scrape ~timeout book ~host ~port (Smart_proto.Trace_msg.encode_request format)

(* Connect one TCP socket to a candidate's service port; the optional
   [connect_timeout] bounds the handshake ([Perform.connect]). *)
let connect_service ?(connect_timeout = -1.0) book ~host =
  Option.bind
    (Addr_book.resolve book ~host ~port:Smart_proto.Ports.service)
    (Perform.connect ~timeout:connect_timeout)
  |> Option.map (fun socket -> { host; socket })

(* The full §3.6.2 flow: ask the wizard, then return one connected socket
   per candidate.  A candidate that refuses or times out is skipped —
   counted in [client.connect_failed_total] — and the partial socket
   list is returned, so one dead server never sinks the whole request. *)
let request_sockets ?option ?timeout ?retries ?backoff ?connect_timeout ?rng
    ?metrics book ~wizard_host ~wanted ~requirement () =
  match
    request_servers ?option ?timeout ?retries ?backoff ?rng ?metrics book
      ~wizard_host ~wanted ~requirement ()
  with
  | Error _ as e -> e
  | Ok servers ->
    let connect_failed =
      match metrics with
      | None -> None
      | Some m ->
        Some
          (Smart_util.Metrics.counter m
             ~help:"candidate service connections refused or timed out"
             "client.connect_failed_total")
    in
    (* accumulate under an exception guard: if a later candidate's
       connect raises, the sockets already opened are closed instead of
       leaked *)
    let connected = ref [] in
    (try
       List.iter
         (fun host ->
           match connect_service ?connect_timeout book ~host with
           | Some c -> connected := c :: !connected
           | None ->
             (match connect_failed with
             | Some c -> Smart_util.Metrics.Counter.incr c
             | None -> ()))
         servers
     with e ->
       List.iter
         (fun { socket; _ } ->
           try Unix.close socket with Unix.Unix_error (_, _, _) -> ())
         !connected;
       raise e);
    Ok (List.rev !connected)

let close_all connected =
  List.iter
    (fun { socket; _ } ->
      try Unix.close socket with Unix.Unix_error (_, _, _) -> ())
    connected

(* ------------------------------------------------------------------ *)
(* massd over real sockets                                              *)
(* ------------------------------------------------------------------ *)

type download_stats = {
  total_bytes : int;
  elapsed : float;
  throughput : float;             (* bytes per second *)
  per_server : (string * int) list;  (* blocks fetched per server *)
}

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

(* The §5.3.2 massive download on real sockets: every connected server
   streams one block at a time (`GET <bytes>`); a server that finishes
   self-schedules the next block from the shared queue, so fast servers
   carry more of the file. *)
let download ~connected ~data_kb ~blk_kb =
  if connected = [] then invalid_arg "Client_io.download: no servers";
  if data_kb <= 0 || blk_kb <= 0 then
    invalid_arg "Client_io.download: bad sizes";
  let total_bytes = data_kb * 1024 in
  let block_bytes = blk_kb * 1024 in
  let total_blocks = (data_kb + blk_kb - 1) / blk_kb in
  let queue = ref 0 in
  let fetched = Hashtbl.create 8 in
  let mutex = Mutex.create () in
  let next_block () =
    Mutex.lock mutex;
    let result =
      if !queue >= total_blocks then None
      else begin
        let index = !queue in
        incr queue;
        let bytes =
          if index = total_blocks - 1 then
            max 1 (total_bytes - ((total_blocks - 1) * block_bytes))
          else block_bytes
        in
        Some bytes
      end
    in
    Mutex.unlock mutex;
    result
  in
  let note host =
    Mutex.lock mutex;
    Hashtbl.replace fetched host
      (1 + Option.value ~default:0 (Hashtbl.find_opt fetched host));
    Mutex.unlock mutex
  in
  let worker { host; socket } =
    let buf = Bytes.create 65536 in
    let rec go () =
      match next_block () with
      | None -> ()
      | Some bytes ->
        Service.write_line socket (Printf.sprintf "GET %d" bytes);
        let rec recv remaining =
          if remaining <= 0 then true
          else begin
            let want = min remaining (Bytes.length buf) in
            if read_exact socket buf want then recv (remaining - want)
            else false
          end
        in
        if recv bytes then begin
          note host;
          go ()
        end
    in
    go ()
  in
  let started = Unix.gettimeofday () in
  let threads = List.map (fun c -> Thread.create worker c) connected in
  List.iter Thread.join threads;
  let elapsed = Float.max 1e-9 (Unix.gettimeofday () -. started) in
  {
    total_bytes;
    elapsed;
    throughput = float_of_int total_bytes /. elapsed;
    per_server =
      List.map
        (fun { host; _ } ->
          (host, Option.value ~default:0 (Hashtbl.find_opt fetched host)))
        connected;
  }
