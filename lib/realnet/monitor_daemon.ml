(* Real-socket monitor machine: the monitor role on one event loop —
   system monitor (UDP), security monitor (log file), network monitor
   (UDP echo probing of the servers' probe daemons), and the transmitter
   (periodic TCP push, or pull-driven in distributed mode). *)

type config = Smart_core.Role.monitor_config = {
  host : string;              (* logical name of the monitor machine *)
  wizard_host : string;
  mode : Smart_core.Transmitter.mode;
  probe_interval : float;     (* expected probe reporting period *)
  transmit_interval : float;
  netmon_targets : string list;
  security_log : string;      (* contents, "" for none *)
}

type t = {
  config : config;
  book : Addr_book.t;  (* pinned: the netmon targets resolved at create *)
  netmon : Smart_core.Netmon.t;
  loop : Loop.t;
}

let create book (config : config) =
  let role = Smart_core.Role.monitor (Daemon.env ()) config in
  let loop, book = Daemon.install book ~host:config.host role in
  { config; book; netmon = role.parts.netmon; loop }

(* RTT of one [size]-byte datagram against a probe daemon's echo
   responder; [None] on timeout.  A datagram the socket took adds its
   size to [sent]. *)
let echo_rtt t ~sent ~target ~size ~timeout =
  match Addr_book.resolve t.book ~host:target ~port:Smart_proto.Ports.probe with
  | None -> None
  | Some to_ ->
    let socket = Udp_io.bind_port 0 in
    Fun.protect
      ~finally:(fun () -> Udp_io.stop socket)
      (fun () ->
        let payload = String.make size 'p' in
        let sent_at = Unix.gettimeofday () in
        if not (Udp_io.send socket ~to_ payload) then None
        else begin
          sent := !sent + size;
          match Udp_io.recv_timeout socket ~timeout with
          | Some (_, _) -> Some (Unix.gettimeofday () -. sent_at)
          | None -> None
        end)

(* The one-way-UDP-stream estimate over real sockets: two echo probes of
   different sizes, B = (S2-S1)/(T2-T1). *)
let socket_prober ?(timeout = 2.0) t ~target =
  let sent = ref 0 in
  let delay = echo_rtt t ~sent ~target ~size:64 ~timeout in
  let t1 = echo_rtt t ~sent ~target ~size:1600 ~timeout in
  let t2 = echo_rtt t ~sent ~target ~size:2900 ~timeout in
  let result =
    match (delay, t1, t2) with
    | Some d, Some t1, Some t2 when t2 > t1 ->
      Some
        {
          Smart_core.Netmon.delay = d /. 2.0;
          bandwidth = float_of_int (2900 - 1600) /. (t2 -. t1);
        }
    | Some d, _, _ ->
      (* bandwidth indistinguishable (fast local path): report delay only
         with a conservative bandwidth floor *)
      Some { Smart_core.Netmon.delay = d /. 2.0; bandwidth = 0.0 }
    | _ -> None
  in
  { Smart_core.Netmon.sent_bytes = !sent; result }

(* The echo probes run on the caller's thread, as one can wait out its
   timeout; the finished round crosses to the loop, which publishes it. *)
let refresh_netmon t =
  let now = Unix.gettimeofday () in
  let measure target = (target, socket_prober t ~target) in
  let measured = List.map measure t.config.netmon_targets in
  Loop.call t.loop (fun () ->
      Smart_core.Netmon.probe_all t.netmon ~now ~prober:(fun ~target ->
          List.assoc target measured))

let start t = Loop.start t.loop

let stop t = Loop.stop t.loop
