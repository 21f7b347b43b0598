(* The client library over real sockets (§3.6.2): send the request, wait
   for the matching reply (the client library's exchange decides when to
   retransmit and when to give up), then connect a TCP socket to each
   candidate's service port and hand the list to the caller. *)

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
        (* [timeout] caps each receive window, so it caps the policy;
           the give-up comes after the sum of the capped nominal
           windows *)
        let policy =
          {
            backoff with
            Smart_util.Backoff.max_delay =
              Float.min backoff.Smart_util.Backoff.max_delay timeout;
          }
        in
        let budget = ref 0.0 in
        for attempt = 0 to retries do
          budget := !budget +. Smart_util.Backoff.nominal policy ~attempt
        done;
        let now = Unix.gettimeofday () in
        let exchange =
          Smart_core.Client.exchange client request ~sends:(retries + 1)
            ~backoff:(Smart_util.Backoff.create ~rng policy)
            ~deadline:(now +. !budget)
        in
        let rec act = function
          | Smart_core.Client.Send time ->
            ignore
              (Udp_io.send socket ~to_:wizard_addr
                 (Smart_core.Client.datagram exchange));
            await time
          | Smart_core.Client.Wait time -> await time
          | Smart_core.Client.Done result -> result
          | Smart_core.Client.Idle -> assert false  (* only after Done *)
        and await time =
          let now = Unix.gettimeofday () in
          if now >= time then act (Smart_core.Client.wake exchange ~now)
          else
            match Udp_io.recv_timeout socket ~timeout:(time -. now) with
            | None ->
              act (Smart_core.Client.wake exchange ~now:(Unix.gettimeofday ()))
            | Some (_, data) ->
              (match Smart_core.Client.receive exchange data with
              | Some result -> result
              | None -> await time)
        in
        act (Smart_core.Client.wake exchange ~now))

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
