(* One wiring per machine role: each description below builds its
   components, connects their hooks and declares the ports, timers,
   scrape endpoint and peers the machine has.  The simulator and the
   real-socket daemons install these same descriptions, so a daemon
   does what the simulation tested. *)

type sink = { sport : int; transmitter : Transmitter.t option }

type handler =
  | Datagram of (now:float -> from:Output.address -> string -> Output.t list)
  | Stream of Receiver.t

type port = { number : int; handler : handler; sink : sink }

type timer = {
  offset : float;
  period : unit -> float;
  jitter : float;
  armed : unit -> bool;
  fire : now:float -> Output.t list;
  sink : sink;
}

type env = {
  metrics : Smart_util.Metrics.t;
  trace : Smart_util.Tracelog.t;
  clock : unit -> float;
}

type 'a t = {
  ports : port list;
  timers : timer list;
  scrape_port : int;
  env : env;
  peers : string list;
  parts : 'a;
}

(* Both decoders test the magic in place, so a datagram that is not a
   scrape allocates nothing on its way through. *)
let scrape role data =
  match Smart_proto.Metrics_msg.decode_request data with
  | Some format ->
    Some (Smart_proto.Metrics_msg.encode_reply format role.env.metrics)
  | None ->
    (match Smart_proto.Trace_msg.decode_request data with
    | Some format ->
      Some (Smart_proto.Trace_msg.encode_reply format role.env.trace)
    | None -> None)

let always () = true

let sink ?transmitter sport = { sport; transmitter }

(* Every machine frames its records little-endian. *)
let order = Smart_proto.Endian.Little

let every ?(armed = always) ~offset ~period sink fire =
  { offset; period = (fun () -> period); jitter = 0.0; armed; fire; sink }

(* ------------------------------------------------------------------ *)
(* Probe server                                                        *)
(* ------------------------------------------------------------------ *)

let probe ?(control_loops = false) env (config : Probe.config) ~interval
    ~snapshot =
  let probe =
    Probe.create ~metrics:env.metrics ~trace:env.trace
      ?adaptive_base:(if control_loops then Some interval else None)
      config
  in
  (* a failed snapshot counts with the component's own lost ticks *)
  let errors = Smart_util.Metrics.counter env.metrics "probe.errors_total" in
  let tick ~now =
    match snapshot ~now with
    | Error _ ->
      Smart_util.Metrics.Counter.incr errors;
      []
    | Ok snapshot ->
      (match Probe.tick probe ~now ~snapshot with
      | Ok (_report, outputs) -> outputs
      | Error _ -> [])
  in
  (* the network monitor's echo responder *)
  let echo ~now:_ ~(from : Output.address) data =
    [ Output.Udp { dst = from; data } ]
  in
  let out = sink Smart_proto.Ports.probe in
  {
    env;
    scrape_port = Smart_proto.Ports.probe;
    peers = [ config.monitor.host ];
    ports = [ { number = Smart_proto.Ports.probe; handler = Datagram echo; sink = out } ];
    timers =
      [
        {
          offset = 0.01;
          period =
            (fun () ->
              Option.value (Probe.report_interval probe) ~default:interval);
          jitter = interval /. 20.0;
          armed = always;
          fire = tick;
          sink = out;
        };
      ];
    parts = ();
  }

(* ------------------------------------------------------------------ *)
(* Monitor machine                                                     *)
(* ------------------------------------------------------------------ *)

type monitor_config = {
  host : string;
  wizard_host : string;
  mode : Transmitter.mode;
  probe_interval : float;
  transmit_interval : float;
  netmon_targets : string list;
  security_log : string;
}

type monitor = { netmon : Netmon.t; transmitter : Transmitter.t }

let monitor ?(control_loops = false) ?(crc = false) (env : env)
    (config : monitor_config) =
  let { metrics; trace; _ } = env in
  let db = Status_db.create () in
  (* adaptive probes may legitimately slow down: expiry tolerates the
     slowest cadence they can adopt, or healthy slow probes expire and
     quarantined hosts never build a clean streak *)
  let probe_interval =
    if control_loops then config.probe_interval *. Probe.max_factor
    else config.probe_interval
  in
  let sysmon =
    Sysmon.create
      ~config:{ Sysmon.default_config with probe_interval }
      ~adaptive:control_loops ~metrics ~trace db
  in
  let netmon =
    Netmon.create ~metrics ~trace
      { Netmon.monitor_name = config.host; targets = config.netmon_targets }
      db
  in
  let secmon = Secmon.create ~metrics ~trace db in
  if not (String.equal config.security_log "") then
    ignore (Secmon.refresh_from_log secmon config.security_log);
  let transmitter =
    Transmitter.create ~metrics ~trace ~crc ~monitor_name:config.host
      {
        Transmitter.mode = config.mode;
        order;
        receiver =
          { Output.host = config.wizard_host; port = Smart_proto.Ports.receiver };
      }
      db
  in
  let reports = sink Smart_proto.Ports.sysmon in
  let pushes = sink ~transmitter 0 in
  let report ~now ~from:_ data =
    ignore (Sysmon.handle_report sysmon ~now data);
    []
  in
  let pull ~now:_ ~from:_ data = Transmitter.handle_pull transmitter ~data in
  {
    env;
    scrape_port = Smart_proto.Ports.transmitter;
    peers = config.wizard_host :: config.netmon_targets;
    ports =
      [
        { number = Smart_proto.Ports.sysmon; handler = Datagram report; sink = reports };
        { number = Smart_proto.Ports.transmitter; handler = Datagram pull; sink = pushes };
      ];
    timers =
      [
        every ~offset:config.probe_interval ~period:config.probe_interval
          reports (fun ~now ->
            ignore (Sysmon.sweep sysmon ~now);
            []);
        every ~offset:0.2 ~period:config.transmit_interval pushes
          (fun ~now -> Transmitter.tick transmitter ~now);
      ];
    parts = { netmon; transmitter };
  }

(* ------------------------------------------------------------------ *)
(* Wizard machine, federation shard and root                           *)
(* ------------------------------------------------------------------ *)

type wizard = { db : Status_db.t; receiver : Receiver.t; wizard : Wizard.t }

let receiver_port receiver =
  {
    number = Smart_proto.Ports.receiver;
    handler = Stream receiver;
    sink = sink Smart_proto.Ports.receiver;
  }

let wizard ?(control_loops = false) ?admission ?groups ?shard_name env ~mode
    ~staleness_threshold =
  let db = Status_db.create () in
  let receiver = Receiver.create ~metrics:env.metrics ~trace:env.trace ~order db in
  let wizard =
    Wizard.create ~metrics:env.metrics ~trace:env.trace ~clock:env.clock
      ~staleness_threshold ~adaptive_staleness:control_loops ?shard_name
      ?admission { Wizard.mode; groups } db
  in
  Receiver.set_update_hook receiver (Some (fun _ -> Wizard.note_update wizard));
  let out = sink Smart_proto.Ports.wizard in
  (* distributed-mode freshness waits and admission's delayed releases:
     only a parked request needs the tick *)
  let parked () = Wizard.(pending_count wizard + delayed_count wizard) > 0 in
  {
    env;
    scrape_port = Smart_proto.Ports.wizard;
    peers =
      (match mode with
      | Wizard.Centralized -> []
      | Wizard.Distributed transmitters ->
        List.map (fun (a : Output.address) -> a.host) transmitters);
    ports =
      [
        receiver_port receiver;
        {
          number = Smart_proto.Ports.wizard;
          handler =
            Datagram
              (fun ~now ~from data -> Wizard.handle_request wizard ~now ~from data);
          sink = out;
        };
      ];
    timers =
      [
        every ~offset:0.05 ~period:0.05 ~armed:parked out (fun ~now ->
            Wizard.tick wizard ~now);
      ];
    parts = { db; receiver; wizard };
  }

let shard role ~root_host ~crc ~transmit_interval =
  let { db; wizard = w; _ } = role.parts and env = role.env in
  let name = Wizard.shard_name w in
  if String.equal name "" then invalid_arg "Role.shard: no shard name";
  (* the digest uplink: column ranges built with the shard wizard's own
     network bindings, so they cover exactly the values subqueries
     compare, plus its latency sketch once it has observations *)
  let uplink =
    Transmitter.create ~metrics:env.metrics ~trace:env.trace ~crc
      ~summary:(fun () ->
        Status_db.summary db ~shard:name ~net_for:(fun host ->
            Wizard.net_entry_for w ~host))
      ~sketches:(fun () ->
        let sketch = Wizard.latency_sketch w in
        if Smart_util.Sketch.count sketch = 0 then []
        else [ (Fed_root.latency_metric, sketch) ])
      ~sketch_source:name ~monitor_name:name
      {
        Transmitter.mode = Transmitter.Centralized;
        order;
        receiver = { Output.host = root_host; port = Smart_proto.Ports.receiver };
      }
      db
  in
  let subquery ~now:_ ~from data = Wizard.handle_subquery w ~from data in
  {
    role with
    peers = root_host :: role.peers;
    ports =
      role.ports
      @ [
          {
            number = Smart_proto.Ports.fed;
            handler = Datagram subquery;
            sink = sink Smart_proto.Ports.fed;
          };
        ];
    timers =
      role.timers
      @ [
          every ~offset:0.3 ~period:transmit_interval
            (sink ~transmitter:uplink 0) (fun ~now ->
              Transmitter.tick uplink ~now);
        ];
  }

type root = {
  root : Fed_root.t;
  root_db : Status_db.t;
  root_receiver : Receiver.t;
}

let root env ~shards =
  let root_db = Status_db.create () in
  let root_receiver =
    Receiver.create ~metrics:env.metrics ~trace:env.trace ~order root_db
  in
  let root =
    Fed_root.create ~metrics:env.metrics ~clock:env.clock ~trace:env.trace
      {
        Fed_root.shards =
          List.map
            (fun name ->
              {
                Fed_root.name;
                addr = { Output.host = name; port = Smart_proto.Ports.fed };
              })
            shards;
        fanout_timeout = 1.0;
        routing = true;
      }
  in
  Receiver.set_digest_hook root_receiver (Some (Fed_root.note_digest root));
  Receiver.set_sketch_hook root_receiver (Some (Fed_root.note_sketches root));
  let answers = sink Smart_proto.Ports.wizard in
  let reply ~now:_ ~from:_ data = Fed_root.handle_reply root data in
  {
    env;
    scrape_port = Smart_proto.Ports.wizard;
    peers = shards;
    ports =
      [
        receiver_port root_receiver;
        { number = Smart_proto.Ports.fed; handler = Datagram reply; sink = answers };
        {
          number = Smart_proto.Ports.wizard;
          handler =
            Datagram
              (fun ~now ~from data -> Fed_root.handle_request root ~now ~from data);
          sink = sink Smart_proto.Ports.fed;
        };
      ];
    timers =
      [ every ~offset:0.05 ~period:0.05 answers (fun ~now -> Fed_root.tick root ~now) ];
    parts = { root; root_db; root_receiver };
  }
