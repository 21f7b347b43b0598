(* The system status monitor (§3.2.2): collects probe reports into the
   system database, stamping each record with its arrival time, and
   periodically sweeps out servers whose probe has gone quiet.

   Flap quarantine: a server that keeps expiring and re-registering (a
   crashing-and-restarting probe, a lossy path) whipsaws the wizard's
   candidate set.  After [flap_threshold] expiries the host is
   quarantined — its reports are counted but not inserted — until it has
   reported continuously for [clean_intervals] probe periods. *)

module Metrics = Smart_util.Metrics

type config = {
  probe_interval : float;  (* expected reporting period of the probes *)
  missed_intervals : int;  (* failures tolerated before expiry (3 in §4.1) *)
}

let default_config = { probe_interval = 5.0; missed_intervals = 3 }

let flap_threshold = 3

let clean_intervals = 3

(* Adaptive quarantine (DESIGN.md §14): on a lossy network every host
   accumulates flap score, and the fixed threshold would quarantine the
   whole fleet.  Each expiry feeds the host's new flap score into a
   deterministic quantile sketch; once [min_samples] scores are in, the
   effective threshold becomes [factor] x the [quantile] of observed
   scores, clamped to [flap_threshold, max_threshold] — only the
   outliers relative to the fleet's own flap rate are quarantined. *)
let factor = 1.5

let quantile = 0.9

let max_threshold = 32

let min_samples = 8

(* Clean-streak bookkeeping for a quarantined host.  A gap longer than
   1.5 probe intervals means the probe went quiet again: the streak
   restarts. *)
type quarantine = {
  mutable clean_since : float option;  (* start of the current streak *)
  mutable last_report : float;
}

type t = {
  config : config;
  adaptive : bool;
  flap_sketch : Smart_util.Sketch.t;  (* flap scores observed at expiry *)
  mutable flap_threshold_now : int;  (* effective quarantine threshold *)
  db : Status_db.t;
  trace : Smart_util.Tracelog.t;
  flaps : (string, int) Hashtbl.t;  (* host -> expiries since last re-admit *)
  quarantined : (string, quarantine) Hashtbl.t;
  reports_total : Metrics.Counter.t;
  parse_errors_total : Metrics.Counter.t;
  sweeps_total : Metrics.Counter.t;
  expired_total : Metrics.Counter.t;
  quarantined_total : Metrics.Counter.t;
  quarantined_reports_total : Metrics.Counter.t;
  readmitted_total : Metrics.Counter.t;
  quarantined_gauge : Metrics.Gauge.t;
  hosts : Metrics.Gauge.t;
  flap_threshold_gauge : Metrics.Gauge.t;
  threshold_adaptations_total : Metrics.Counter.t;
}

let create ?(config = default_config) ?(adaptive = false)
    ?(metrics = Metrics.create ()) ?(trace = Smart_util.Tracelog.disabled) db =
  {
    config;
    adaptive;
    flap_sketch =
      Smart_util.Sketch.create
        ~rng:
          (Smart_util.Prng.create
             ~seed:(Smart_util.Crc32.string "sysmon.flaps"))
        ();
    flap_threshold_now = flap_threshold;
    db;
    trace;
    flaps = Hashtbl.create 8;
    quarantined = Hashtbl.create 8;
    reports_total =
      Metrics.counter metrics ~help:"probe reports ingested"
        "sysmon.reports_total";
    parse_errors_total =
      Metrics.counter metrics ~help:"malformed report datagrams dropped"
        "sysmon.parse_errors_total";
    sweeps_total =
      Metrics.counter metrics ~help:"expiry sweeps run" "sysmon.sweeps_total";
    expired_total =
      Metrics.counter metrics ~help:"servers expired for probe silence"
        "sysmon.expired_total";
    quarantined_total =
      Metrics.counter metrics ~help:"flapping servers put in quarantine"
        "sysmon.quarantined_total";
    quarantined_reports_total =
      Metrics.counter metrics
        ~help:"reports from quarantined servers, counted but not inserted"
        "sysmon.quarantined_reports_total";
    readmitted_total =
      Metrics.counter metrics
        ~help:"quarantined servers re-admitted after a clean streak"
        "sysmon.readmitted_total";
    quarantined_gauge =
      Metrics.gauge metrics ~help:"servers currently quarantined"
        "sysmon.quarantined";
    hosts =
      Metrics.gauge metrics ~help:"servers currently in the system database"
        "sysmon.hosts";
    flap_threshold_gauge =
      Metrics.gauge metrics
        ~help:"effective flap-quarantine threshold (adaptive sysmon)"
        "sysmon.effective_flap_threshold";
    threshold_adaptations_total =
      Metrics.counter metrics
        ~help:"adaptive flap-threshold changes"
        "sysmon.threshold_adaptations_total";
  }

let max_age t = t.config.probe_interval *. float_of_int t.config.missed_intervals

(* A quarantined host reported.  Returns [true] when the clean streak
   just reached [clean_intervals] probe periods and the host may rejoin
   the database. *)
let quarantine_report t q ~now =
  (match q.clean_since with
  | Some _ when now -. q.last_report <= 1.5 *. t.config.probe_interval -> ()
  | Some _ | None -> q.clean_since <- Some now);
  q.last_report <- now;
  match q.clean_since with
  | Some since ->
    now -. since >= t.config.probe_interval *. float_of_int clean_intervals
  | None -> false

(* One incoming report datagram.  A traced report carries the probe's
   tick-span context: the ingest span adopts it as parent and is left in
   the database as the table's last writer, which is how the report
   pipeline's trace crosses from the probe machine into the monitor. *)
let handle_report t ~now data =
  match Smart_proto.Report.decode data with
  | Error e ->
    Metrics.Counter.incr t.parse_errors_total;
    Error e
  | Ok (report, ctx) ->
    let host = report.Smart_proto.Report.host in
    let admitted =
      match Hashtbl.find_opt t.quarantined host with
      | None -> true
      | Some q ->
        if quarantine_report t q ~now then begin
          Hashtbl.remove t.quarantined host;
          Hashtbl.remove t.flaps host;
          Metrics.Counter.incr t.readmitted_total;
          Metrics.Gauge.set t.quarantined_gauge
            (float_of_int (Hashtbl.length t.quarantined));
          Smart_util.Tracelog.instant t.trace "sysmon.readmit";
          true
        end
        else begin
          Metrics.Counter.incr t.quarantined_reports_total;
          false
        end
    in
    let span =
      Smart_util.Tracelog.start t.trace ~parent:ctx "sysmon.ingest"
    in
    Metrics.Counter.incr t.reports_total;
    if admitted then begin
      Status_db.update_sys t.db
        { Smart_proto.Records.report; updated_at = now };
      Status_db.set_last_trace t.db (Smart_util.Tracelog.ctx_of span)
    end;
    Metrics.Gauge.set t.hosts (float_of_int (Status_db.sys_count t.db));
    Smart_util.Tracelog.finish t.trace span;
    Ok report

(* The control decision: re-derive the effective quarantine threshold
   from the fleet's flap-score distribution.  Metered and traced as a
   [sysmon.tune] instant so same-seed runs stay byte-identical. *)
let tune t =
  if Smart_util.Sketch.count t.flap_sketch >= min_samples then begin
    let q = Smart_util.Sketch.quantile t.flap_sketch quantile in
    let candidate =
      Int.max flap_threshold
        (Int.min max_threshold (int_of_float (Float.round (factor *. q))))
    in
    if candidate <> t.flap_threshold_now then begin
      t.flap_threshold_now <- candidate;
      Metrics.Gauge.set t.flap_threshold_gauge (float_of_int candidate);
      Metrics.Counter.incr t.threshold_adaptations_total;
      Smart_util.Tracelog.instant t.trace "sysmon.tune"
    end
  end

(* Periodic expiry sweep; returns the number of expired servers.  Each
   expiry counts against the host's flap score; crossing the threshold
   quarantines it until it reports cleanly for a while.  Under adaptive
   quarantine each new score also feeds the flap sketch and the
   threshold is re-derived before the quarantine test. *)
let sweep t ~now =
  let span = Smart_util.Tracelog.start t.trace "sysmon.sweep" in
  let expired =
    Status_db.sweep_sys_expired t.db ~now ~max_age:(max_age t)
  in
  List.iter
    (fun host ->
      let flaps = 1 + Option.value ~default:0 (Hashtbl.find_opt t.flaps host) in
      Hashtbl.replace t.flaps host flaps;
      if t.adaptive then begin
        Smart_util.Sketch.observe t.flap_sketch (float_of_int flaps);
        tune t
      end;
      if flaps >= t.flap_threshold_now && not (Hashtbl.mem t.quarantined host)
      then begin
        Hashtbl.replace t.quarantined host
          { clean_since = None; last_report = now };
        Metrics.Counter.incr t.quarantined_total;
        Metrics.Gauge.set t.quarantined_gauge
          (float_of_int (Hashtbl.length t.quarantined));
        Smart_util.Tracelog.instant t.trace "sysmon.quarantine"
      end)
    expired;
  Metrics.Counter.incr t.sweeps_total;
  Metrics.Counter.incr t.expired_total ~by:(List.length expired);
  Metrics.Gauge.set t.hosts (float_of_int (Status_db.sys_count t.db));
  Smart_util.Tracelog.finish t.trace span;
  List.length expired


