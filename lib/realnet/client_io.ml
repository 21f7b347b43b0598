(* The client library over real sockets (§3.6.2): send the request, wait
   for the matching reply (the client library's exchange decides when to
   retransmit and when to give up), then connect a TCP socket to each
   candidate's service port and hand the list to the caller. *)

type connected_server = { host : string; socket : Unix.file_descr }

(* A call's retry schedule: the policy it passed ([backoff]) capped by
   its [timeout], which caps each receive window, and its give-up
   [budget], the sum of the capped nominal windows of its [retries + 1]
   sends. *)
type schedule = {
  backoff : Smart_util.Backoff.policy;
  timeout : float;
  retries : int;
  capped : Smart_util.Backoff.policy;
  budget : float;
}

let schedule ~backoff ~timeout ~retries =
  let capped =
    {
      backoff with
      Smart_util.Backoff.max_delay =
        Float.min backoff.Smart_util.Backoff.max_delay timeout;
    }
  in
  let budget = ref 0.0 in
  for attempt = 0 to retries do
    budget := !budget +. Smart_util.Backoff.nominal capped ~attempt
  done;
  { backoff; timeout; retries; capped; budget = !budget }

(* An endpoint: a bound UDP socket kept from call to call, a generator
   of its own, seeded once, for calls that pass no [?rng], and the
   [Client] and schedule last built on it with what they were built
   from. *)
type endpoint = {
  udp : Udp_io.t;
  own_rng : Smart_util.Prng.t;
  mutable client : Smart_core.Client.t;
  mutable rng : Smart_util.Prng.t;
  mutable metrics : Smart_util.Metrics.t option;
  mutable schedule : schedule;
}

(* The idle endpoints, last returned first: a call takes one, or binds a
   new one when none is idle, so the list holds as many as calls were
   ever in flight at once. *)
let idle = ref []

let idle_lock = Mutex.create ()

let same_registry a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b -> a == b
  | _ -> false

(* An idle endpoint whose [Client] draws from [rng] (the endpoint's own
   generator by default) and counts into [metrics], on the schedule of
   [backoff] (compared physically), [timeout] and [retries]; the
   [Client] and the schedule are rebuilt only when what they were built
   from differs from the last call's. *)
let borrow ?metrics ?rng ~backoff ~timeout ~retries () =
  Mutex.lock idle_lock;
  let taken =
    match !idle with
    | ep :: rest ->
      idle := rest;
      Some ep
    | [] -> None
  in
  Mutex.unlock idle_lock;
  match taken with
  | Some ep ->
    let rng = Option.value rng ~default:ep.own_rng in
    if not (rng == ep.rng && same_registry metrics ep.metrics) then begin
      ep.client <- Smart_core.Client.create ?metrics ~rng ();
      ep.rng <- rng;
      ep.metrics <- metrics
    end;
    let s = ep.schedule in
    if
      not
        (backoff == s.backoff
        && Float.equal timeout s.timeout
        && retries = s.retries)
    then ep.schedule <- schedule ~backoff ~timeout ~retries;
    ep
  | None ->
    let udp = Udp_io.bind_port 0 in
    let own_rng =
      Smart_util.Prng.create
        ~seed:(Unix.getpid () + int_of_float (Unix.gettimeofday () *. 1e6))
    in
    let rng = Option.value rng ~default:own_rng in
    {
      udp;
      own_rng;
      client = Smart_core.Client.create ?metrics ~rng ();
      rng;
      metrics;
      schedule = schedule ~backoff ~timeout ~retries;
    }

let give_back ep =
  Mutex.lock idle_lock;
  idle := ep :: !idle;
  Mutex.unlock idle_lock

(* Drive [exchange] from [step] on [udp] until it ends: send when asked,
   wait for a reply until the step's time, and wake the exchange when
   the time passes. *)
let rec act udp ~wizard_addr exchange = function
  | Smart_core.Client.Send time ->
    ignore
      (Udp_io.send udp ~to_:wizard_addr (Smart_core.Client.datagram exchange));
    await udp ~wizard_addr exchange time
  | Smart_core.Client.Wait time -> await udp ~wizard_addr exchange time
  | Smart_core.Client.Done result -> result
  | Smart_core.Client.Idle -> assert false  (* only after Done *)

and await udp ~wizard_addr exchange time =
  let now = Unix.gettimeofday () in
  if now >= time then
    act udp ~wizard_addr exchange (Smart_core.Client.wake exchange ~now)
  else
    match Udp_io.recv udp ~timeout:(time -. now) with
    | None ->
      act udp ~wizard_addr exchange
        (Smart_core.Client.wake exchange ~now:(Unix.gettimeofday ()))
    | Some data ->
      (match Smart_core.Client.receive exchange data with
      | Some result -> result
      | None -> await udp ~wizard_addr exchange time)

(* One request on [ep]: send, wait for the matching reply (the client
   library's exchange decides when to retransmit and when to give up). *)
let exchange_on ep ~wizard_addr ~option ~wanted ~requirement =
  let request =
    Smart_core.Client.make_request ep.client ~wanted ~option ~requirement
  in
  (* whatever reached the endpoint while it was idle (a reply after its
     call's deadline, a duplicate, junk) is not this call's *)
  Udp_io.drain ep.udp;
  let now = Unix.gettimeofday () in
  let { capped; budget; retries; _ } = ep.schedule in
  let exchange =
    Smart_core.Client.exchange ep.client request ~sends:(retries + 1)
      ~backoff:(Smart_util.Backoff.create ~rng:ep.rng capped)
      ~deadline:(now +. budget)
  in
  act ep.udp ~wizard_addr exchange (Smart_core.Client.wake exchange ~now)

(* The request on a borrowed endpoint, which goes back on the idle list
   whatever the call's result; an exception closes it instead. *)
let request_servers ?(option = Smart_proto.Wizard_msg.Accept_partial)
    ?(timeout = 2.0) ?(retries = 2)
    ?(backoff = Smart_util.Backoff.default) ?rng ?metrics book
    ~wizard_host ~wanted ~requirement () =
  match
    Addr_book.resolve book ~host:wizard_host ~port:Smart_proto.Ports.wizard
  with
  | None -> Error (Smart_core.Client.Malformed "unknown wizard host")
  | Some wizard_addr ->
    let ep = borrow ?metrics ?rng ~backoff ~timeout ~retries () in
    (match exchange_on ep ~wizard_addr ~option ~wanted ~requirement with
    | result ->
      give_back ep;
      result
    | exception e ->
      Udp_io.stop ep.udp;
      raise e)

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
