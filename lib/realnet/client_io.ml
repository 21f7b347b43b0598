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

(* One scrape: the [request] magic datagram out, the rendered dump back
   within 2 s.  [port] picks the daemon — wizard request port,
   transmitter pull port or probe echo port all answer both kinds. *)
let scrape book ~host ~port request =
  match Addr_book.resolve book ~host ~port with
  | None -> Error (Printf.sprintf "unknown host %s" host)
  | Some addr ->
    let socket = Udp_io.bind_port 0 in
    Fun.protect
      ~finally:(fun () -> Udp_io.stop socket)
      (fun () ->
        if not (Udp_io.send socket ~to_:addr request) then Error "send failed"
        else
          match Udp_io.recv_timeout socket ~timeout:2.0 with
          | Some (_, dump) -> Ok dump
          | None -> Error "scrape timed out")

let scrape_metrics ?(format = Smart_proto.Metrics_msg.Text) book ~host ~port
    () =
  scrape book ~host ~port (Smart_proto.Metrics_msg.encode_request format)

let scrape_trace ?(format = Smart_proto.Trace_msg.Text) book ~host ~port () =
  scrape book ~host ~port (Smart_proto.Trace_msg.encode_request format)

(* Connect one TCP socket to a candidate's service port, within the
   bound a push gets: a host that drops SYNs costs a second, not the
   kernel's SYN retries. *)
let connect_service book ~host =
  Option.bind
    (Addr_book.resolve book ~host ~port:Smart_proto.Ports.service)
    (Perform.connect ~timeout:Perform.stream_bound)
  |> Option.map (fun socket -> { host; socket })

(* The full §3.6.2 flow: ask the wizard, then return one connected socket
   per candidate.  A candidate that refuses or times out is skipped and
   the partial socket list is returned, so one dead server never sinks
   the whole request. *)
let request_sockets ?option book ~wizard_host ~wanted ~requirement () =
  match request_servers ?option book ~wizard_host ~wanted ~requirement () with
  | Error _ as e -> e
  | Ok servers ->
    (* accumulate under an exception guard: if a later candidate's
       connect raises, the sockets already opened are closed instead of
       leaked *)
    let connected = ref [] in
    (try
       List.iter
         (fun host ->
           Option.iter
             (fun c -> connected := c :: !connected)
             (connect_service book ~host))
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
