(* The network monitor (§3.3.3): measures (delay, bandwidth) along the
   paths from this monitor to its probing targets — peer monitors in a
   multi-group deployment, or the local servers directly in a
   single-group one — strictly one target at a time, as the thesis
   prescribes ("multiple probes should not run simultaneously").

   The actual measurement is injected: the simulation driver plugs in the
   one-way UDP stream estimator over the packet plane, the realnet driver
   a socket-based equivalent. *)

module Metrics = Smart_util.Metrics

type probe_result = { delay : float; bandwidth : float }

type probe = { sent_bytes : int; result : probe_result option }

type prober = target:string -> probe

type config = {
  monitor_name : string;
  targets : string list;  (* host names, probed in order *)
}

type t = {
  config : config;
  db : Status_db.t;
  trace : Smart_util.Tracelog.t;
  probes_total : Metrics.Counter.t;
  probe_failures_total : Metrics.Counter.t;
  probe_bytes_total : Metrics.Counter.t;
  rounds_total : Metrics.Counter.t;
  reachable : Metrics.Gauge.t;
}

let create ?(metrics = Metrics.create ())
    ?(trace = Smart_util.Tracelog.disabled) config db =
  {
    config;
    db;
    trace;
    probes_total =
      Metrics.counter metrics ~help:"path probes attempted"
        "netmon.probes_total";
    probe_failures_total =
      Metrics.counter metrics ~help:"path probes that returned nothing"
        "netmon.probe_failures_total";
    probe_bytes_total =
      Metrics.counter metrics
        ~help:"payload bytes the path probes sent, failed probes included"
        "netmon.probe_bytes_total";
    rounds_total =
      Metrics.counter metrics ~help:"full probe_all rounds completed"
        "netmon.rounds_total";
    reachable =
      Metrics.gauge metrics ~help:"targets answering in the last round"
        "netmon.reachable";
  }

(* Probe every target sequentially and publish the refreshed record. *)
let probe_all t ~now ~(prober : prober) =
  let round =
    Smart_util.Tracelog.start t.trace "netmon.round"
  in
  let parent = Smart_util.Tracelog.ctx_of round in
  let entries =
    List.filter_map
      (fun target ->
        Metrics.Counter.incr t.probes_total;
        let probe_span =
          Smart_util.Tracelog.start t.trace ~parent "netmon.probe"
        in
        Fun.protect ~finally:(fun () ->
            Smart_util.Tracelog.finish t.trace probe_span)
        @@ fun () ->
        let probe = prober ~target in
        Metrics.Counter.add t.probe_bytes_total probe.sent_bytes;
        match probe.result with
        | Some { delay; bandwidth } ->
          Some
            {
              Smart_proto.Records.peer = target;
              delay;
              bandwidth;
              measured_at = now;
            }
        | None ->
          Metrics.Counter.incr t.probe_failures_total;
          None)
      t.config.targets
  in
  let record =
    { Smart_proto.Records.monitor = t.config.monitor_name; entries }
  in
  Status_db.update_net t.db record;
  Metrics.Counter.incr t.rounds_total;
  Metrics.Gauge.set t.reachable (float_of_int (List.length entries));
  Smart_util.Tracelog.finish t.trace round;
  record
