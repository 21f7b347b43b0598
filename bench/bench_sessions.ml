(* Session-plane benchmark (DESIGN.md §15), two phases.

   Phase A — survival under churn: the session_chaos scenario
   (lib/experiments/scenario.ml: 4 servers in one group, a crash +
   partition + heal fault plan on the flow-level TCP model) carrying
   BENCH_SESSIONS_COUNT long-lived sessions for
   BENCH_SESSIONS_DURATION virtual seconds.
   Reported: sessions survived, completed migrations, migration latency
   p95 (from the session.migration_latency_seconds histogram), and the
   work ledger — issued / completed / requeued / lost.  The acceptance
   gate pins success rate at 1.0 and lost at 0.  Runs on virtual time,
   so the phase is deterministic and takes milliseconds of wall clock.

   Phase B — admission fairness under overload: an in-process wizard
   with per-client token buckets armed (rate 50/s, burst 10) faces
   BENCH_SESSIONS_CLIENTS clients each offering 2x the per-client rate
   for a synthetic-clock window.  Replies are counted per client and
   the Jain fairness index (sum x)^2 / (n * sum x^2) of admitted
   requests is computed; the gate requires >= 0.95 — overload must shed
   evenly, not starve whoever hashes badly.  The clock is a stepped
   float, so the phase is bit-deterministic.

   Results go to stdout and BENCH_sessions.json for trend tracking. *)

module C = Smart_core
module P = Smart_proto

let env_int name default =
  match Sys.getenv_opt name with
  | Some v -> (try int_of_string (String.trim v) with _ -> default)
  | None -> default

let env_float name default =
  match Sys.getenv_opt name with
  | Some v -> (try float_of_string (String.trim v) with _ -> default)
  | None -> default

let session_count = env_int "BENCH_SESSIONS_COUNT" 8
let churn_duration = env_float "BENCH_SESSIONS_DURATION" 20.0
let fair_clients = env_int "BENCH_SESSIONS_CLIENTS" 8
let fair_window = env_float "BENCH_SESSIONS_WINDOW" 2.0
let overload_factor = 2.0
let fairness_gate = 0.95

(* ------------------------------------------------------------------ *)
(* Phase A: sessions under churn                                       *)
(* ------------------------------------------------------------------ *)

(* The session_chaos scenario with the bench's session count and
   duration. *)
let churn_phase () =
  let module S = Smart_experiments.Scenario in
  let s =
    List.find (fun (s : S.t) -> String.equal s.S.name "session_chaos") S.all
  in
  let workload =
    match s.S.workload with
    | S.Sessions w ->
      S.Sessions
        {
          w with
          clients = [ ("cli", session_count) ];
          duration = churn_duration;
        }
    | w -> w
  in
  let o = S.run { s with S.workload } in
  let d = o.S.deployment in
  let report =
    match o.S.tally with
    | S.Ledger r -> r
    | S.Answered _ | S.Reply _ -> invalid_arg "churn_phase: no session ledger"
  in
  let p95 =
    match
      Smart_util.Metrics.find (C.Simdriver.metrics d)
        "session.migration_latency_seconds"
    with
    | Some (Smart_util.Metrics.Histogram h) -> h.Smart_util.Metrics.p95
    | Some _ | None -> Float.nan
  in
  (report, p95)

(* ------------------------------------------------------------------ *)
(* Phase B: admission fairness under 2x overload                       *)
(* ------------------------------------------------------------------ *)

type fairness_result = {
  fr_offered : int;
  fr_admitted : int;
  fr_rejected : int;
  fr_delayed : int;
  fr_index : float;  (* Jain over per-client admitted counts *)
}

let fair_report i =
  {
    P.Report.host = Printf.sprintf "srv%d" i;
    ip = Printf.sprintf "10.9.0.%d" (i + 1);
    load1 = 0.1;
    load5 = 0.1;
    load15 = 0.1;
    cpu_user = 0.1;
    cpu_nice = 0.0;
    cpu_system = 0.01;
    cpu_free = 0.8;
    bogomips = 3000.0;
    mem_total = 512.0;
    mem_used = 100.0;
    mem_free = 400.0;
    mem_buffers = 8.0;
    mem_cached = 32.0;
    disk_rreq = 1.0;
    disk_rblocks = 8.0;
    disk_wreq = 1.0;
    disk_wblocks = 8.0;
    net_rbytes = 1024.0;
    net_rpackets = 4.0;
    net_tbytes = 1024.0;
    net_tpackets = 4.0;
  }

let run_fairness () =
  let db = C.Status_db.create () in
  for i = 0 to 3 do
    C.Status_db.update_sys db
      { P.Records.report = fair_report i; updated_at = 1.0 }
  done;
  let admission =
    { C.Wizard.default_admission with C.Wizard.max_clients = 64 }
  in
  (* synthetic stepped clock: the whole phase is bit-deterministic *)
  let now = ref 0.0 in
  let wizard =
    C.Wizard.create ~clock:(fun () -> !now) ~admission
      { C.Wizard.mode = C.Wizard.Centralized; groups = None }
      db
  in
  let admitted = Array.make fair_clients 0 in
  let rejected = ref 0 in
  let count_outputs outputs =
    List.iter
      (fun output ->
        match output with
        | C.Output.Stream _ -> ()
        | C.Output.Udp { dst; data } -> (
          match P.Wizard_msg.decode_reply data with
          | Error _ -> ()
          | Ok reply ->
            (* client index rides in the reply port *)
            let i = dst.C.Output.port - 4000 in
            if i >= 0 && i < fair_clients then
              if reply.P.Wizard_msg.rejected then incr rejected
              else admitted.(i) <- admitted.(i) + 1))
      outputs
  in
  let per_client_rate = admission.C.Wizard.rate *. overload_factor in
  let dt = 1.0 /. per_client_rate in
  let steps = int_of_float (fair_window /. dt) in
  let seq = ref 0 in
  let offered = ref 0 in
  for _step = 1 to steps do
    now := !now +. dt;
    for i = 0 to fair_clients - 1 do
      incr seq;
      incr offered;
      let data =
        P.Wizard_msg.encode_request
          {
            P.Wizard_msg.seq = !seq;
            server_num = 2;
            option = P.Wizard_msg.Accept_partial;
            requirement = "host_cpu_free > 0.2\n";
            trace = Smart_util.Tracelog.root;
          }
      in
      count_outputs
        (C.Wizard.handle_request wizard ~now:!now
           ~from:{ C.Output.host = Printf.sprintf "cli%d" i; port = 4000 + i }
           data)
    done;
    count_outputs (C.Wizard.tick wizard ~now:!now)
  done;
  (* flush the parked tail *)
  now := !now +. admission.C.Wizard.max_delay +. 0.1;
  count_outputs (C.Wizard.tick wizard ~now:!now);
  let sum = Array.fold_left (fun a x -> a + x) 0 admitted in
  let sum_sq =
    Array.fold_left (fun a x -> a +. (float_of_int x *. float_of_int x)) 0.0
      admitted
  in
  let jain =
    if sum = 0 then Float.nan
    else
      float_of_int (sum * sum) /. (float_of_int fair_clients *. sum_sq)
  in
  {
    fr_offered = !offered;
    fr_admitted = sum;
    fr_rejected = !rejected;
    fr_delayed = C.Wizard.admission_delayed wizard;
    fr_index = jain;
  }

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let json_float = Smart_util.Json.number

let run () =
  let t0 = Unix.gettimeofday () in
  let ( {
          C.Simdriver.sessions;
          survived;
          migrations;
          work_issued;
          work_completed;
          work_requeued;
          work_lost;
        },
        migration_p95 ) =
    churn_phase ()
  in
  let fair = run_fairness () in
  let tab =
    Smart_util.Tabular.create
      ~title:
        (Printf.sprintf "session plane: %d sessions under churn, %d clients at %.0fx overload"
           session_count fair_clients overload_factor)
      ~header:[ "measure"; "value" ]
  in
  let row k v = Smart_util.Tabular.add_row tab [ k; v ] in
  row "sessions survived" (Printf.sprintf "%d/%d" survived sessions);
  row "migrations" (string_of_int migrations);
  row "migration p95"
    (if Float.is_nan migration_p95 then "n/a"
     else Printf.sprintf "%.3f ms" (migration_p95 *. 1e3));
  row "work issued/completed" (Printf.sprintf "%d/%d" work_issued work_completed);
  row "work requeued" (string_of_int work_requeued);
  row "work lost" (string_of_int work_lost);
  row "admission offered/admitted"
    (Printf.sprintf "%d/%d" fair.fr_offered fair.fr_admitted);
  row "admission rejected" (string_of_int fair.fr_rejected);
  row "admission delayed" (string_of_int fair.fr_delayed);
  row "fairness index (Jain)" (Printf.sprintf "%.4f" fair.fr_index);
  Smart_util.Tabular.print tab;
  let success_rate =
    if sessions = 0 then Float.nan
    else float_of_int survived /. float_of_int sessions
  in
  Fmt.pr "session success rate %.3f, fairness %.4f (gate %.2f)@." success_rate
    fair.fr_index fairness_gate;
  let oc = open_out "BENCH_sessions.json" in
  Printf.fprintf oc
    "{\n\
    \  \"benchmark\": \"session_plane\",\n\
    \  \"sessions\": %d,\n\
    \  \"sessions_survived\": %d,\n\
    \  \"session_success_rate\": %s,\n\
    \  \"migrations_total\": %d,\n\
    \  \"migration_p95_s\": %s,\n\
    \  \"work_issued\": %d,\n\
    \  \"work_completed\": %d,\n\
    \  \"work_requeued\": %d,\n\
    \  \"work_lost\": %d,\n\
    \  \"admission_offered\": %d,\n\
    \  \"admission_admitted\": %d,\n\
    \  \"admission_rejected\": %d,\n\
    \  \"admission_delayed\": %d,\n\
    \  \"overload_factor\": %s,\n\
    \  \"fairness_index\": %s,\n\
    \  \"fairness_gate\": %s\n\
     }\n"
    sessions survived (json_float success_rate) migrations
    (json_float migration_p95) work_issued work_completed work_requeued
    work_lost fair.fr_offered
    fair.fr_admitted fair.fr_rejected fair.fr_delayed
    (json_float overload_factor) (json_float fair.fr_index)
    (json_float fairness_gate);
  close_out oc;
  Fmt.pr "wrote BENCH_sessions.json in %.1f s wall@."
    (Unix.gettimeofday () -. t0)
