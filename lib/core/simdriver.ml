(* Simulation driver: installs the machines' roles ([Role]) onto a
   [Smart_host.Cluster], wiring component outputs to the packet plane and
   packet-plane listeners back into component handlers.

   Layout mirrors Fig 3.1 for a single server group and Fig 3.8 for
   several: each group runs its probes, and the three monitors and a
   transmitter on its monitor machine; the receiver and the wizard run on
   the wizard machine.  In multi-group deployments the network monitors
   probe their peer monitors (one sequential mesh, Table 3.4) and the
   wizard binds monitor_network_* per group.  One builder wires that
   wizard machine and its groups (a site): a flat deployment is one site,
   a federation one site per shard under a root. *)

type group = {
  monitor_host : string;
  monitor_node : int;
  netmon : Netmon.t;
  transmitter : Transmitter.t;
  down : bool ref;
      (* set while Crash_node holds the monitor host down (fault
         injection): the group's monitors and transmitter stop handling
         and ticking *)
}

type t = {
  cluster : Smart_host.Cluster.t;
  groups : group list;
  wizard_node : int;
  db_wizard : Status_db.t;
  wizard : Wizard.t;  (* the first shard's in a federation *)
  federated : bool;
  client_rng : Smart_util.Prng.t;
  metrics : Smart_util.Metrics.t;
      (* one registry for the whole deployment: same-named instruments
         from different instances (e.g. every probe) aggregate *)
  tracelog : Smart_util.Tracelog.t;
      (* one span recorder for the whole deployment, stamped with the
         engine's virtual clock: cross-component traces land in a single
         ring and the export is deterministic for a given seed *)
  mutable next_client_port : int;
  mutable corrupt_rate : float;
      (* per-message probability of flipping one byte of a stream
         payload in flight (fault injection) *)
  corrupt_rng : Smart_util.Prng.t;
  corrupted_total : Smart_util.Metrics.Counter.t;
}

(* Fault injection: with probability [corrupt_rate], XOR one byte of a
   stream payload in flight.  0x5A never maps a byte to itself, so a
   drawn corruption always damages the message. *)
let maybe_corrupt t data =
  if
    t.corrupt_rate > 0.0
    && String.length data > 0
    && Smart_util.Prng.float t.corrupt_rng ~bound:1.0 < t.corrupt_rate
  then begin
    Smart_util.Metrics.Counter.incr t.corrupted_total;
    let pos = Smart_util.Prng.int t.corrupt_rng ~bound:(String.length data) in
    let b = Bytes.of_string data in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x5A));
    Bytes.to_string b
  end
  else data

(* Execute component outputs on the packet plane.  Stream outputs also
   travel as datagrams here: the simulated LAN is loss-free and the
   receiver's frame decoder reassembles per-source, so reliability is
   preserved.  Stream payloads pass through the fault plane's corruption
   filter. *)
let perform t ~src_node ?(sport = 0) outputs =
  let stack = Smart_host.Cluster.stack t.cluster in
  List.iter
    (fun output ->
      let dst_addr, data =
        match output with
        | Output.Udp { dst; data } -> (dst, data)
        | Output.Stream { dst; data } -> (dst, maybe_corrupt t data)
      in
      match Smart_host.Cluster.resolve t.cluster dst_addr.Output.host with
      | None -> ()  (* unresolvable host: datagram vanishes *)
      | Some dst ->
        ignore
          (Smart_net.Netstack.send_udp stack ~src:src_node ~dst ~sport
             ~dport:dst_addr.Output.port ~size:(String.length data)
             ~payload:data))
    outputs

let node_name cluster id =
  (Smart_net.Topology.node (Smart_host.Cluster.topology cluster) id)
    .Smart_net.Topology.name

let sport_of pkt =
  match pkt.Smart_net.Packet.proto with
  | Smart_net.Packet.Udp { sport; _ } -> sport
  | Smart_net.Packet.Icmp _ -> 0

let now t = Smart_host.Cluster.now t.cluster

(* A node is up unless its machine has failed (nodes without a machine,
   such as routers, always are). *)
let node_alive cluster node =
  match Smart_host.Cluster.machine_opt cluster node with
  | Some m -> not (Smart_host.Machine.failed m)
  | None -> true

(* A stream delivery is doomed when the destination is unresolvable, its
   machine has failed, or the routed path crosses a partitioned channel.
   The driver plays the role of the TCP connection here: these are the
   conditions under which a real connect/send would error out
   synchronously, so they are reported to the transmitter instead of
   launching bytes that can only vanish. *)
let stream_blocked cluster ~src_node ~host =
  match Smart_host.Cluster.resolve cluster host with
  | None -> true
  | Some dst ->
    (match Smart_host.Cluster.machine_opt cluster dst with
    | Some m when Smart_host.Machine.failed m -> true
    | Some _ | None ->
      let topo = Smart_host.Cluster.topology cluster in
      List.exists Smart_net.Link.partitioned
        (Smart_net.Topology.path topo ~src:src_node ~dst))

(* Route outputs from [node] through [sink].  A transmitter's sink
   learns each stream's fate: a doomed delivery is reported back to it
   (bounded resend queue + backoff) instead of being sent into a black
   hole. *)
let send t ~node (sink : Role.sink) ~now outputs =
  let perform = perform t ~src_node:node ~sport:sink.sport in
  match sink.transmitter with
  | None -> perform outputs
  | Some transmitter ->
    List.iter
      (fun output ->
        match output with
        | Output.Stream { dst; data }
          when stream_blocked t.cluster ~src_node:node ~host:dst.Output.host ->
          Transmitter.note_send_failure transmitter ~now ~data
        | Output.Stream _ ->
          Transmitter.note_send_ok transmitter;
          perform [ output ]
        | Output.Udp _ -> perform [ output ])
      outputs

type config = {
  mode : Transmitter.mode;
  probe_interval : float;
  transmit_interval : float;
  security_log : string;
  frame_crc : bool;
      (* CRC-32 trailers on transmitter frames; required for the
         receiver to detect injected stream corruption *)
  wizard_staleness : float;
      (* receiver silence before wizard replies are flagged degraded *)
  control_loops : bool;
      (* probes self-schedule on Probe.report_interval, sysmons tune the
         flap threshold from flap-score sketches, wizards derive
         degraded mode from inter-update gap sketches (DESIGN.md §14) *)
}

let default_config =
  {
    mode = Transmitter.Centralized;
    probe_interval = 2.0;
    transmit_interval = 2.0;
    security_log = "";
    frame_crc = false;
    wizard_staleness = Wizard.default_staleness_threshold;
    control_loops = false;
  }

(* The packet-plane callbacks wired below reach the deployment record
   through [t_ref], which is set once wiring is done. *)
let the t_ref = match !t_ref with Some t -> t | None -> assert false

(* Install a role on [node], the simulator's way: each port listens on
   the packet plane, each timer rides the engine, and both do nothing
   while [alive] is false.  A stream port's source is the sending node's
   name; a timer with jitter draws it from its own split of the cluster
   PRNG, after each fire. *)
let install t_ref cluster ~node ~alive (role : _ Role.t) =
  let engine = Smart_host.Cluster.engine cluster in
  List.iter
    (fun (port : Role.port) ->
      let scrapes = port.number = role.scrape_port in
      Smart_net.Netstack.listen_udp (Smart_host.Cluster.stack cluster) ~node
        ~port:port.number (fun ~now pkt ->
          if alive () then begin
            let t = the t_ref in
            let data = pkt.Smart_net.Packet.payload in
            let src = node_name cluster pkt.Smart_net.Packet.src in
            match port.handler with
            | Role.Stream receiver ->
              ignore (Receiver.handle_stream receiver ~from:src data)
            | Role.Datagram handle ->
              let from = { Output.host = src; port = sport_of pkt } in
              (match if scrapes then Role.scrape role data else None with
              | Some dump ->
                perform t ~src_node:node ~sport:port.number
                  [ Output.udp ~host:src ~port:from.port dump ]
              | None -> send t ~node port.sink ~now (handle ~now ~from data))
          end))
    role.ports;
  List.iter
    (fun (timer : Role.timer) ->
      let noise =
        if Float.compare timer.jitter 0.0 > 0 then begin
          let rng = Smart_util.Prng.split (Smart_host.Cluster.rng cluster) in
          fun () -> Smart_util.Prng.float rng ~bound:timer.jitter
        end
        else fun () -> 0.0
      in
      let rec arm time =
        ignore
          (Smart_sim.Engine.schedule_at engine ~time (fun () ->
               let now = Smart_sim.Engine.now engine in
               if alive () && timer.armed () then
                 send (the t_ref) ~node timer.sink ~now (timer.fire ~now);
               arm (now +. timer.period () +. noise ())))
      in
      arm (Smart_sim.Engine.now engine +. timer.offset))
    role.timers

(* One group: its monitor machine and a probe on every server.  Machine
   failure silences only the host's probe (the seed's fail_machine
   contract); the monitor processes stop too when Crash_node hits a
   monitor host.  The probes' timers go on the engine before the
   monitor's. *)
let setup_group t_ref config cluster env ~wizard_host ~monitor_host ~servers
    ~netmon_targets =
  let resolve = Smart_host.Cluster.resolve_exn cluster in
  let control_loops = config.control_loops in
  let monitor =
    Role.monitor ~control_loops ~crc:config.frame_crc env
      {
        Role.host = monitor_host;
        wizard_host;
        mode = config.mode;
        probe_interval = config.probe_interval;
        transmit_interval = config.transmit_interval;
        netmon_targets;
        security_log = config.security_log;
      }
  in
  List.iter
    (fun server ->
      let node = resolve server in
      let machine = Smart_host.Cluster.machine cluster node in
      let spec = Smart_host.Machine.spec machine in
      install t_ref cluster ~node
        ~alive:(fun () -> not (Smart_host.Machine.failed machine))
        (Role.probe ~control_loops env
           {
             Probe.host = spec.Smart_host.Machine.name;
             ip = spec.Smart_host.Machine.ip;
             bogomips = spec.Smart_host.Machine.bogomips;
             monitor =
               { Output.host = monitor_host; port = Smart_proto.Ports.sysmon };
             iface = "eth0";
           }
           ~interval:config.probe_interval
           ~snapshot:(fun ~now ->
             Ok (Smart_host.Procfs.snapshot_of_machine machine ~now))))
    servers;
  let monitor_node = resolve monitor_host in
  let down = ref false in
  install t_ref cluster ~node:monitor_node ~alive:(fun () -> not !down) monitor;
  {
    monitor_host;
    monitor_node;
    netmon = monitor.parts.netmon;
    transmitter = monitor.parts.transmitter;
    down;
  }

(* One wizard machine on [host] fed by [groups] ([(monitor_host, servers);
   ...], the first being the wizard's local group): a flat deployment's
   wizard, or with [shard] [(name, root_host)] a federation shard.  A
   single group's network monitor probes its servers directly; several
   form a mesh whose monitors probe their peers (§3.3.3), and the wizard
   binds monitor_network_* per group. *)
let build_site t_ref config cluster env ~shard ~host ~groups =
  let multi_group = List.length groups > 1 in
  let monitor_hosts = List.map fst groups in
  let site_groups =
    List.map
      (fun (monitor_host, servers) ->
        let netmon_targets =
          if multi_group then
            List.filter
              (fun m -> not (String.equal m monitor_host))
              monitor_hosts
          else servers
        in
        setup_group t_ref config cluster env ~wizard_host:host ~monitor_host
          ~servers ~netmon_targets)
      groups
  in
  let mode =
    match config.mode with
    | Transmitter.Centralized -> Wizard.Centralized
    | Transmitter.Distributed ->
      Wizard.Distributed
        (List.map
           (fun m -> { Output.host = m; port = Smart_proto.Ports.transmitter })
           monitor_hosts)
  in
  let wizard_groups =
    if not multi_group then None
    else begin
      let table = Hashtbl.create 32 in
      List.iter
        (fun (monitor_host, servers) ->
          List.iter (fun s -> Hashtbl.replace table s monitor_host) servers)
        groups;
      Some
        {
          Wizard.local_monitor = List.hd monitor_hosts;
          group_of = (fun host -> Hashtbl.find_opt table host);
        }
    end
  in
  let site =
    Role.wizard ~control_loops:config.control_loops ?groups:wizard_groups
      ?shard_name:(Option.map fst shard) env ~mode
      ~staleness_threshold:config.wizard_staleness
  in
  let site =
    match shard with
    | None -> site
    | Some (_, root_host) ->
      Role.shard site ~root_host ~crc:config.frame_crc
        ~transmit_interval:config.transmit_interval
  in
  let node = Smart_host.Cluster.resolve_exn cluster host in
  install t_ref cluster ~node ~alive:(fun () -> node_alive cluster node) site;
  (site_groups, node, site.parts)

(* Wire a deployment: [wire] installs everything on the cluster, with
   one metrics registry and one flight recorder (on the engine's virtual
   clock) for all of it, and returns what answers clients: every group,
   the client-facing node, its database and wizard, and the federation
   state.  The client and fault-injection PRNGs split off the cluster's
   after every group's. *)
let deployment cluster wire =
  let engine = Smart_host.Cluster.engine cluster in
  let clock () = Smart_sim.Engine.now engine in
  let metrics = Smart_util.Metrics.create () in
  (* deployment-wide flight recorder on the virtual clock; always on:
     recording is a ring write per span, far below the noise floor of a
     simulated run, and every export stays seed-deterministic *)
  let tracelog = Smart_util.Tracelog.create ~capacity:65536 ~clock () in
  let t_ref = ref None in
  let groups, wizard_node, db_wizard, wizard, federated =
    wire t_ref { Role.metrics; trace = tracelog; clock }
  in
  let t =
    {
      cluster;
      groups;
      wizard_node;
      db_wizard;
      wizard;
      federated;
      client_rng = Smart_util.Prng.split (Smart_host.Cluster.rng cluster);
      metrics;
      tracelog;
      next_client_port = 45000;
      corrupt_rate = 0.0;
      corrupt_rng = Smart_util.Prng.split (Smart_host.Cluster.rng cluster);
      corrupted_total =
        Smart_util.Metrics.counter metrics
          ~help:"stream payloads corrupted in flight by fault injection"
          "faults.corrupted_messages_total";
    }
  in
  t_ref := Some t;
  t

(* [deploy_groups cluster ~wizard_host ~groups] installs the stack for
   several server groups: [(monitor_host, servers); ...].  The first
   group is the wizard's local group. *)
let deploy_groups ?(config = default_config) cluster ~wizard_host ~groups =
  if groups = [] then invalid_arg "Simdriver.deploy_groups: no groups";
  deployment cluster (fun t_ref env ->
      let groups, node, site =
        build_site t_ref config cluster env ~shard:None ~host:wizard_host
          ~groups
      in
      (groups, node, site.Role.db, site.Role.wizard, false))

(* Single-group deployment (Fig 3.1): monitors + transmitter on
   [monitor], receiver + wizard on [wizard_host], probes on [servers]. *)
let deploy ?config cluster ~monitor ~wizard_host ~servers =
  deploy_groups ?config cluster ~wizard_host ~groups:[ (monitor, servers) ]

(* Federated deployment (DESIGN.md §13): every shard is one site — its
   groups' monitors and transmitters feed a mirror on the shard host,
   where a regional wizard answers root subqueries on the federation
   port — plus a digest uplink shipping the shard's column ranges to the
   root host every transmit interval.  The root host runs the {!Fed_root}
   role, listening for clients on the ordinary wizard port, so {!request}
   drives a federated deployment unchanged.

   Groups always run centralized here: the regional wizard answers
   subqueries immediately from its mirror, so passive (pull-driven)
   transmitters would never be pulled. *)
let deploy_federation ?(config = default_config) cluster ~root_host ~shards =
  if shards = [] then invalid_arg "Simdriver.deploy_federation: no shards";
  let config = { config with mode = Transmitter.Centralized } in
  deployment cluster (fun t_ref env ->
      let shard (shard_host, groups) =
        if groups = [] then
          invalid_arg "Simdriver.deploy_federation: shard with no groups";
        let groups, _, site =
          build_site t_ref config cluster env
            ~shard:(Some (shard_host, root_host)) ~host:shard_host ~groups
        in
        (groups, site.Role.wizard)
      in
      let groups, shard_wizards = List.split (List.map shard shards) in
      let root = Role.root env ~shards:(List.map fst shards) in
      let root_node = Smart_host.Cluster.resolve_exn cluster root_host in
      install t_ref cluster ~node:root_node
        ~alive:(fun () -> node_alive cluster root_node)
        root;
      ( List.concat groups,
        root_node,
        root.parts.root_db,
        List.hd shard_wizards,
        true ))

(* Let the deployment warm up: probes report, databases fill. *)
let settle ?(duration = 6.0) t =
  let engine = Smart_host.Cluster.engine t.cluster in
  Smart_sim.Engine.run engine
    ~until:(Smart_sim.Engine.now engine +. duration)

(* One path probe: [ping_count] pings of [ping_size] bytes for the
   delay, then [trials] one-way UDP stream pairs of [stream_s1] and
   [stream_s2] bytes for the bandwidth.  Every datagram is sent whether
   or not an earlier one was answered, so the bytes a probe sends follow
   from these sizes. *)
let ping_count = 3

let ping_size = 56

let stream_s1 = 1600

let stream_s2 = 2900

let path_probe ~trials stack ~src ~dst =
  let delay =
    Smart_measure.Rtt_probe.ping ~count:ping_count ~size:ping_size stack ~src
      ~dst ()
  in
  let bw =
    Smart_measure.Udp_stream.measure ~s1:stream_s1 ~s2:stream_s2 ~trials stack
      ~src ~dst ()
  in
  {
    Netmon.sent_bytes =
      (ping_count * ping_size) + (trials * (stream_s1 + stream_s2));
    result =
      (match (delay, bw) with
      | Some d, Some b ->
        Some
          {
            Netmon.delay = d /. 2.0;
            bandwidth = b.Smart_measure.Udp_stream.avg_bw;
          }
      | _ -> None);
  }

(* The monitor's probe of [target]: a name that does not resolve fails
   and the monitor's own host costs nothing. *)
let measure_path ?(trials = 4) t ~src_node ~target =
  match Smart_host.Cluster.resolve t.cluster target with
  | None -> { Netmon.sent_bytes = 0; result = None }
  | Some dst when dst = src_node ->
    {
      Netmon.sent_bytes = 0;
      result = Some { Netmon.delay = 0.0; bandwidth = 4e9 /. 8.0 };
    }
  | Some dst ->
    path_probe ~trials (Smart_host.Cluster.stack t.cluster) ~src:src_node ~dst

(* Sequentially refresh every group's network monitor using the one-way
   UDP stream method over the packet plane — one probe at a time across
   the whole mesh, as §3.3.3 prescribes.  Advances virtual time. *)
let refresh_netmon ?trials t =
  let records =
    List.map
      (fun g ->
        let record =
          Netmon.probe_all g.netmon ~now:(now t)
            ~prober:(fun ~target ->
              measure_path ?trials t ~src_node:g.monitor_node ~target)
        in
        (* push so the wizard side immediately observes fresh metrics *)
        let outputs = Transmitter.push g.transmitter in
        perform t ~src_node:g.monitor_node outputs;
        record)
      t.groups
  in
  (* let the final pushes reach the wizard machine before returning *)
  settle ~duration:0.2 t;
  match records with
  | r :: _ -> r
  | [] -> assert false

let all_netmon_records t =
  List.filter_map
    (fun g -> Status_db.find_net t.db_wizard ~monitor:g.monitor_host)
    t.groups

(* A client socket on host [client]: a fresh reply port whose datagrams
   go to [on_reply], and [send], which addresses the wizard (or
   federation root) port.  Returns [(send, close)]; [close] stops
   listening. *)
let client_endpoint t ~client on_reply =
  let stack = Smart_host.Cluster.stack t.cluster in
  let client_node = Smart_host.Cluster.resolve_exn t.cluster client in
  let reply_port = t.next_client_port in
  t.next_client_port <- t.next_client_port + 1;
  Smart_net.Netstack.listen_udp stack ~node:client_node ~port:reply_port
    (fun ~now:_ pkt -> on_reply pkt.Smart_net.Packet.payload);
  let send data =
    ignore
      (Smart_net.Netstack.send_udp stack ~src:client_node ~dst:t.wizard_node
         ~sport:reply_port ~dport:Smart_proto.Ports.wizard
         ~size:(String.length data) ~payload:data)
  in
  (send, fun () ->
    Smart_net.Netstack.unlisten_udp stack ~node:client_node ~port:reply_port)

(* One smart-socket request from [client]: the client library's
   exchange ([Client.exchange]) on this cluster's clock and packet
   plane.  The send goes out now, each wake the exchange asks for rides
   an engine timer, and [on_result] fires exactly once, from the reply
   listener or from the give-up.  All of it runs on virtual time, so
   retry schedules are deterministic for a given seed.  Only enqueues
   work, so code already inside an engine callback (the session plane's
   workload) can call it.  Returns the request's trace context (the
   [client.request] span the wizard's and any later migration spans
   parent on). *)
let async_request ?(option = Smart_proto.Wizard_msg.Accept_partial)
    ?(timeout = 5.0) ?(attempts = 5) ?(backoff = Smart_util.Backoff.default) t
    ~client ~wanted ~requirement on_result =
  if attempts <= 0 then
    invalid_arg "Simdriver.request: attempts must be positive";
  let engine = Smart_host.Cluster.engine t.cluster in
  let client_lib =
    Client.create ~metrics:t.metrics ~trace:t.tracelog ~rng:t.client_rng ()
  in
  let req = Client.make_request client_lib ~wanted ~option ~requirement in
  let exchange =
    Client.exchange client_lib req ~sends:attempts
      ~backoff:
        (Smart_util.Backoff.create ~rng:(Smart_util.Prng.split t.client_rng)
           backoff)
      ~deadline:(Smart_sim.Engine.now engine +. timeout)
  in
  let close = ref ignore in
  let finish result =
    (* unlisten from a fresh timer, not from inside the listener
       dispatch that may be delivering to this very port *)
    ignore
      (Smart_sim.Engine.schedule_after engine ~delay:1e-9 (fun () -> !close ()));
    on_result result
  in
  let send, close_port =
    client_endpoint t ~client (fun data ->
        Option.iter finish (Client.receive exchange data))
  in
  close := close_port;
  let rec act = function
    | Client.Send time ->
      send (Client.datagram exchange);
      arm time
    | Client.Wait time -> arm time
    | Client.Done result -> finish result
    | Client.Idle -> ()
  and arm time =
    ignore
      (Smart_sim.Engine.schedule_at engine ~time (fun () ->
           act (Client.wake exchange ~now:(Smart_sim.Engine.now engine))))
  in
  act (Client.wake exchange ~now:(Smart_sim.Engine.now engine));
  req.Smart_proto.Wizard_msg.trace

(* The blocking form: [async_request], then the runner's ticks until it
   answers.  The exchange ends by its 5 s deadline, so the wait does
   too. *)
let request ?option ?attempts ?backoff t ~client ~wanted ~requirement =
  let engine = Smart_host.Cluster.engine t.cluster in
  let deadline = Smart_sim.Engine.now engine +. 5.0 in
  let result = ref None in
  ignore
    (async_request ?option ?attempts ?backoff t ~client ~wanted ~requirement
       (fun r -> result := Some r));
  ignore
    (Smart_measure.Runner.run_until engine ~deadline (fun () ->
         Option.is_some !result));
  Option.value !result ~default:(Error Client.Timeout)

(* ------------------------------------------------------------------ *)
(* The session workload (DESIGN.md §15)                                *)
(* ------------------------------------------------------------------ *)

type session_report = {
  sessions : int;
  survived : int;  (* bound to a live server at the end, nothing lost *)
  migrations : int;
  work_issued : int;  (* re-issues included *)
  work_completed : int;
  work_requeued : int;
  work_lost : int;  (* the chaos acceptance gate pins this at zero *)
}

(* One long-lived-session driver.  [pending] holds work items not
   currently on the wire: fresh ones minted while the connection is down
   plus in-flight ones requeued off a failed connection — they are
   re-issued once the session is bound to a healthy server again, which
   is how migration loses nothing. *)
type sess_driver = {
  sd_sess : Session.session;
  sd_client : string;
  sd_client_node : int;
  mutable sd_pending : int;
  mutable sd_outstanding : int;
  mutable sd_issued : int;
  mutable sd_requeued : int;
  mutable sd_lost : int;
  mutable sd_bound_gen : int;  (* wizard db generation at bind time *)
  mutable sd_cooldown_until : float;  (* no re-ask before this *)
  sd_boff : Smart_util.Backoff.t;
}

(* Drive [clients] (a [(host, sessions_on_it)] list) of long-lived
   sessions against the deployment for [duration] virtual seconds, then
   drain.  Each session binds the one server the wizard picks through a
   shared {!Session.pool}, issues one synthetic work item per
   [work_interval] (each occupying its connection for [work_duration]),
   and watches its held server every [check_interval]: a dead connection
   (crash, partition, keep-alive verdict) or — in flat deployments — a
   database generation change after which the host's row no longer
   qualifies triggers a mid-session migration.  Admission rejections and
   failed migrations back off on {!Smart_util.Backoff.default}.  Runs
   the engine to completion and reports; within [drain_timeout] every
   requeued item completes and [work_lost] is zero. *)
let run_sessions ?(work_interval = 1.0) t ~clients ~requirement ~duration =
  let work_duration = 0.4 and check_interval = 0.5 in
  let keepalive_interval = 2.0 and request_timeout = 4.0 in
  let drain_timeout = 30.0 and backoff = Smart_util.Backoff.default in
  if clients = [] then invalid_arg "Simdriver.run_sessions: no clients";
  let engine = Smart_host.Cluster.engine t.cluster in
  let vclock () = Smart_sim.Engine.now engine in
  let pool =
    Session.pool ~metrics:t.metrics ~trace:t.tracelog ~keepalive_interval
      ~clock:vclock ()
  in
  let program =
    match Smart_lang.Requirement.compile_fast requirement with
    | Ok fast -> Some fast
    | Error _ -> None
  in
  let start_at = vclock () in
  let end_at = start_at +. duration in
  let hard_deadline = end_at +. drain_timeout in
  let finalized = ref false in
  let host_alive host =
    match Smart_host.Cluster.resolve t.cluster host with
    | None -> false
    | Some node -> node_alive t.cluster node
  in
  let reachable d host =
    host_alive host
    && not (stream_blocked t.cluster ~src_node:d.sd_client_node ~host)
  in
  let conn_ok d c =
    (match Session.conn_state c with
    | Session.Closed | Session.Draining -> false
    | Session.Connecting | Session.Established -> true)
    && reachable d (Session.conn_host c)
  in
  (* Is the held server still one the wizard could pick?  Re-check the
     session's requirement against the host's row of the wizard's live
     database, bound exactly as selection binds it; a one-row view
     leaves the wizard's memoized snapshot alone.  Only meaningful in
     flat deployments (a federation root holds digests, not records), so
     federated runs rely on the dead-connection path. *)
  let still_qualified host =
    match program with
    | Some fast when not t.federated ->
      (match
         Status_db.row_view t.db_wizard ~host
           ~net_for:(fun host -> Wizard.net_entry_for t.wizard ~host)
       with
      | None -> false
      | Some view -> Selection.qualifies ~fast ~view ~row:0)
    | Some _ | None -> true
  in
  let drivers =
    List.concat_map
      (fun (client_host, count) ->
        let client_node = Smart_host.Cluster.resolve_exn t.cluster client_host in
        List.init count (fun i ->
            {
              sd_sess =
                Session.session pool
                  ~name:(Printf.sprintf "%s#%d" client_host i);
              sd_client = client_host;
              sd_client_node = client_node;
              sd_pending = 0;
              sd_outstanding = 0;
              sd_issued = 0;
              sd_requeued = 0;
              sd_lost = 0;
              sd_bound_gen = -1;
              sd_cooldown_until = 0.0;
              sd_boff =
                Smart_util.Backoff.create
                  ~rng:(Smart_util.Prng.split t.client_rng)
                  backoff;
            }))
      clients
  in
  let rec start_item d c =
    d.sd_issued <- d.sd_issued + 1;
    d.sd_outstanding <- d.sd_outstanding + 1;
    Session.work_started pool d.sd_sess c;
    ignore
      (Smart_sim.Engine.schedule_after engine ~delay:work_duration (fun () ->
           d.sd_outstanding <- d.sd_outstanding - 1;
           if
             Session.conn_state c <> Session.Closed
             && reachable d (Session.conn_host c)
           then Session.work_done pool d.sd_sess c
           else begin
             (* the server died under the item: requeue, never lose *)
             Session.work_requeued pool d.sd_sess c;
             d.sd_requeued <- d.sd_requeued + 1;
             d.sd_pending <- d.sd_pending + 1;
             flush_pending d
           end))
  and flush_pending d =
    if (not !finalized) && Session.session_state d.sd_sess = Session.Active
    then
      match Session.session_conn d.sd_sess with
      | Some c when conn_ok d c ->
        let n = d.sd_pending in
        d.sd_pending <- 0;
        for _ = 1 to n do
          start_item d c
        done
      | Some _ | None -> ()
  in
  (* Ask the wizard and bind (or hand over to) the pick.  On any error —
     timeout, admission shed, empty reply — back off before the next
     ask; a migration that cannot find a *different* live server is
     abandoned and retried by the watcher after the cooldown. *)
  let rec select_and_bind d ~migrating =
    let current =
      match Session.session_conn d.sd_sess with
      | Some c -> Some (Session.conn_host c)
      | None -> None
    in
    let give_up reason =
      d.sd_cooldown_until <- vclock () +. Smart_util.Backoff.next d.sd_boff;
      if migrating then
        Session.abandon_migration pool d.sd_sess ~reason
      else begin
        (* initial bind failed: retry once the cooldown passes *)
        ignore
          (Smart_sim.Engine.schedule_after engine
             ~delay:(Float.max 0.01 (d.sd_cooldown_until -. vclock ()))
             (fun () ->
               if
                 (not !finalized)
                 && Session.session_state d.sd_sess = Session.Selecting
               then select_and_bind d ~migrating:false))
      end
    in
    let origin = ref Smart_util.Tracelog.root in
    origin :=
      async_request ~timeout:request_timeout ~backoff t ~client:d.sd_client
        ~wanted:1 ~requirement (fun result ->
          if not !finalized then
            match result with
            | Ok hosts ->
              (* is the held connection still usable?  While it is, a
                 sole candidate identical to the held host means the
                 wizard still ranks it first and the migration is
                 abandoned; once it is dead, rebinding the same host is
                 a real handover — the server recovered and the re-ask
                 confirmed it is (again) the best pick *)
              let current_usable =
                match Session.session_conn d.sd_sess with
                | Some c -> conn_ok d c
                | None -> false
              in
              let choice =
                match
                  List.find_opt
                    (fun h ->
                      (match current with
                      | Some cur -> not (String.equal h cur)
                      | None -> true)
                      && reachable d h)
                    hosts
                with
                | Some h -> Some h
                | None -> (
                  match hosts with
                  | h :: _ when not migrating -> Some h
                  | h :: _ when (not current_usable) && reachable d h ->
                    Some h
                  | _ -> None)
              in
              (match choice with
              | None -> give_up "no replacement candidate"
              | Some host ->
                let c =
                  if migrating then
                    Session.complete_migration pool d.sd_sess ~host
                      ~origin:!origin
                  else Session.bind pool d.sd_sess ~host ~origin:!origin
                in
                (* the simulated LAN connects instantly *)
                Session.established pool c;
                d.sd_bound_gen <- Status_db.generation t.db_wizard;
                Smart_util.Backoff.reset d.sd_boff;
                d.sd_cooldown_until <- 0.0;
                flush_pending d)
            | Error e ->
              give_up (Fmt.str "%a" Client.pp_error e))
  in
  (* per-session start, staggered so request bursts stay spread *)
  List.iteri
    (fun i d ->
      ignore
        (Smart_sim.Engine.schedule_after engine
           ~delay:(0.01 +. (0.03 *. float_of_int i))
           (fun () ->
             Session.selecting d.sd_sess;
             select_and_bind d ~migrating:false)))
    drivers;
  (* work pump: one fresh item per interval per session while the run
     lasts; items born under a dead connection queue for re-issue *)
  let work_pump =
    Smart_sim.Engine.every engine ~period:work_interval
      ~start:(start_at +. work_interval) (fun now ->
        if now < end_at then
          List.iter
            (fun d ->
              d.sd_pending <- d.sd_pending + 1;
              flush_pending d)
            drivers)
  in
  (* watcher: migrate away from dead or no-longer-qualified servers *)
  let watcher =
    Smart_sim.Engine.every engine ~period:check_interval
      ~start:(start_at +. check_interval) (fun now ->
        List.iter
          (fun d ->
            if
              Session.session_state d.sd_sess = Session.Active
              && now >= d.sd_cooldown_until
            then
              match Session.session_conn d.sd_sess with
              | None -> ()
              | Some c ->
                let host = Session.conn_host c in
                let dead =
                  Session.conn_state c = Session.Closed
                  || not (reachable d host)
                in
                let stale =
                  (not dead)
                  && Status_db.generation t.db_wizard <> d.sd_bound_gen
                  && not (still_qualified host)
                in
                if dead || stale then begin
                  (* a dead entry is discarded from the pool before the
                     re-ask, so the replacement bind dials fresh even
                     when it lands on the same (recovered) host *)
                  if dead then Session.close pool c;
                  Session.begin_migration pool d.sd_sess;
                  select_and_bind d ~migrating:true
                end)
          drivers)
  in
  (* keep-alive pump: probe quiet connections, answered by liveness of
     the peer (vantage: the first client host) *)
  let vantage = List.hd drivers in
  let keepalive_pump =
    Smart_sim.Engine.every engine ~period:(keepalive_interval /. 2.0)
      ~start:(start_at +. (keepalive_interval /. 2.0)) (fun now ->
        List.iter
          (fun c ->
            Session.keepalive_sent pool c;
            if reachable vantage (Session.conn_host c) then
              Session.keepalive_ok pool c
            else Session.keepalive_miss pool c)
          (Session.keepalive_due pool ~now))
  in
  (* drain: poll past [end_at] until every item resolved or the hard
     deadline expires; whatever is left is lost (the chaos gate).  The
     run's periodic processes stop with it, so they do not outlive it
     on the engine. *)
  let rec drain_check () =
    if not !finalized then begin
      let now = vclock () in
      let idle =
        List.for_all
          (fun d -> d.sd_pending = 0 && d.sd_outstanding = 0)
          drivers
      in
      if (now >= end_at && idle) || now >= hard_deadline then begin
        finalized := true;
        List.iter Smart_sim.Engine.stop_periodic
          [ work_pump; watcher; keepalive_pump ];
        List.iter
          (fun d ->
            d.sd_lost <- d.sd_pending + d.sd_outstanding;
            if d.sd_lost > 0 then Session.work_lost pool ~count:d.sd_lost)
          drivers
      end
      else
        ignore (Smart_sim.Engine.schedule_after engine ~delay:0.25 drain_check)
    end
  in
  ignore
    (Smart_sim.Engine.schedule_after engine ~delay:(end_at -. start_at)
       drain_check);
  ignore
    (Smart_measure.Runner.run_until engine ~deadline:(hard_deadline +. 1.0)
       (fun () -> !finalized));
  let survived =
    List.length
      (List.filter
         (fun d ->
           d.sd_lost = 0
           &&
           match Session.session_conn d.sd_sess with
           | Some c ->
             Session.conn_state c <> Session.Closed
             && host_alive (Session.conn_host c)
           | None -> false)
         drivers)
  in
  let sum f = List.fold_left (fun acc d -> acc + f d) 0 drivers in
  let report =
    {
      sessions = List.length drivers;
      survived;
      migrations = sum (fun d -> Session.session_migrations d.sd_sess);
      work_issued = sum (fun d -> d.sd_issued);
      work_completed = sum (fun d -> Session.session_completed d.sd_sess);
      work_requeued = sum (fun d -> d.sd_requeued);
      work_lost = sum (fun d -> d.sd_lost);
    }
  in
  List.iter (fun d -> Session.retire pool d.sd_sess) drivers;
  report

(* One SMART-METRICS scrape over the packet plane: magic datagram from
   [client] to the wizard (or federation root) port, rendered registry
   dump back as text.  Drives the simulation until the reply lands or
   2 virtual seconds pass. *)
let scrape_metrics t ~client =
  let engine = Smart_host.Cluster.engine t.cluster in
  let reply = ref None in
  let send, close =
    client_endpoint t ~client (fun data -> reply := Some data)
  in
  send (Smart_proto.Metrics_msg.encode_request Smart_proto.Metrics_msg.Text);
  ignore
    (Smart_measure.Runner.run_until engine
       ~deadline:(Smart_sim.Engine.now engine +. 2.0)
       (fun () -> !reply <> None));
  close ();
  match !reply with
  | Some dump -> Ok dump
  | None -> Error "scrape timed out"

(* Failure injection: a failed machine's probe goes silent, and the
   monitor expires it after three missed intervals. *)
let fail_machine t ~host =
  let node = Smart_host.Cluster.resolve_exn t.cluster host in
  Smart_host.Machine.set_failed (Smart_host.Cluster.machine t.cluster node) true

let revive_machine t ~host =
  let node = Smart_host.Cluster.resolve_exn t.cluster host in
  Smart_host.Machine.set_failed
    (Smart_host.Cluster.machine t.cluster node)
    false

(* Partition every channel touching [host] (both directions through its
   access link), or heal them. *)
let set_host_partitioned t ~host on =
  match Smart_host.Cluster.resolve t.cluster host with
  | None -> ()
  | Some node ->
    Smart_net.Topology.iter_channels
      (Smart_host.Cluster.topology t.cluster)
      (fun l ->
        if l.Smart_net.Link.src = node || l.Smart_net.Link.dst = node then
          Smart_net.Link.set_partitioned l on)

let set_monitor_down t ~host on =
  List.iter
    (fun g -> if String.equal g.monitor_host host then g.down := on)
    t.groups

let set_frame_corruption t rate =
  if rate < 0.0 || rate > 1.0 then
    invalid_arg "Simdriver.set_frame_corruption: rate out of [0,1]";
  t.corrupt_rate <- rate

(* Carry out one fault-plane action (see Smart_sim.Faults).  Crashing a
   monitor host also stops its monitor processes — fail_machine alone
   only silences the probe. *)
let apply_fault t = function
  | Smart_sim.Faults.Crash_node host ->
    fail_machine t ~host;
    set_monitor_down t ~host true
  | Smart_sim.Faults.Restart_node host ->
    revive_machine t ~host;
    set_monitor_down t ~host false
  | Smart_sim.Faults.Partition_host host -> set_host_partitioned t ~host true
  | Smart_sim.Faults.Heal_host host -> set_host_partitioned t ~host false
  | Smart_sim.Faults.Corrupt_frames rate -> set_frame_corruption t rate

(* Arm a fault plan on the deployment's engine; the schedule and every
   effect run on virtual time, so same-seed chaos runs are identical. *)
let install_faults t plan =
  Smart_sim.Faults.install ~metrics:t.metrics ~trace:t.tracelog
    ~engine:(Smart_host.Cluster.engine t.cluster)
    ~apply:(fun action -> apply_fault t action)
    plan

let db_wizard t = t.db_wizard

let metrics t = t.metrics

let tracelog t = t.tracelog

(* Chrome trace-event export of the whole deployment, with the engine's
   own event trace (packet sends, timer fires, ...) merged in as instant
   events so spans can be read against the packet plane's activity. *)
let trace_json t =
  let instants =
    match Smart_host.Cluster.trace t.cluster with
    | None -> []
    | Some trace ->
      List.map
        (fun (e : Smart_sim.Trace.entry) ->
          (e.Smart_sim.Trace.time, e.Smart_sim.Trace.category,
           e.Smart_sim.Trace.message))
        (Smart_sim.Trace.entries trace)
  in
  Smart_util.Tracelog.to_chrome_json ~instants t.tracelog
