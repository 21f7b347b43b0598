(* The security monitor (§3.4): in this implementation it imports the
   dummy security log — (host, clearance level) pairs — into the security
   database.  The component boundary is deliberately thin so third-party
   agents (the thesis mentions Cisco NAC) can replace the log source. *)

module Metrics = Smart_util.Metrics

type t = {
  db : Status_db.t;
  trace : Smart_util.Tracelog.t;
  refreshes_total : Metrics.Counter.t;
  parse_errors_total : Metrics.Counter.t;
  hosts : Metrics.Gauge.t;
}

let create ?(metrics = Metrics.create ())
    ?(trace = Smart_util.Tracelog.disabled) db =
  {
    db;
    trace;
    refreshes_total =
      Metrics.counter metrics ~help:"security table replacements"
        "secmon.refreshes_total";
    parse_errors_total =
      Metrics.counter metrics ~help:"security logs that failed to parse"
        "secmon.parse_errors_total";
    hosts =
      Metrics.gauge metrics ~help:"hosts with a clearance level"
        "secmon.hosts";
  }

let note_refresh t (record : Smart_proto.Records.sec_record) =
  Metrics.Counter.incr t.refreshes_total;
  Metrics.Gauge.set t.hosts
    (float_of_int (List.length record.Smart_proto.Records.entries))

(* Ingest a complete security log text. *)
let refresh_from_log t text =
  let span = Smart_util.Tracelog.start t.trace "secmon.refresh" in
  let result =
    match Smart_proto.Records.parse_security_log text with
    | Ok record ->
      Status_db.replace_sec t.db record;
      note_refresh t record;
      Ok record
    | Error e ->
      Metrics.Counter.incr t.parse_errors_total;
      Error e
  in
  Smart_util.Tracelog.finish t.trace span;
  result
