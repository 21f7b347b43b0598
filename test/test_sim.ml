(* Tests for the discrete-event engine: ordering, cancellation, periodic
   processes, time monotonicity. *)

module Engine = Smart_sim.Engine

(* Every queued event, however far ahead; the clock ends at infinity. *)
let run_until_idle e = Engine.run e ~until:Float.infinity

let test_event_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  ignore (Engine.schedule_at e ~time:3.0 (note "c"));
  ignore (Engine.schedule_at e ~time:1.0 (note "a"));
  ignore (Engine.schedule_at e ~time:2.0 (note "b"));
  Engine.run e ~until:10.0;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "clock at until" 10.0 (Engine.now e)

let test_simultaneous_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 0 to 9 do
    ignore (Engine.schedule_at e ~time:1.0 (fun () -> log := i :: !log))
  done;
  Engine.run e ~until:2.0;
  Alcotest.(check (list int))
    "scheduling order preserved"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !log)

let test_run_partial () =
  let e = Engine.create () in
  let fired = ref 0 in
  ignore (Engine.schedule_at e ~time:1.0 (fun () -> incr fired));
  ignore (Engine.schedule_at e ~time:5.0 (fun () -> incr fired));
  Engine.run e ~until:2.0;
  Alcotest.(check int) "only due events" 1 !fired;
  Engine.run e ~until:6.0;
  Alcotest.(check int) "rest later" 2 !fired

let test_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule_at e ~time:1.0 (fun () -> fired := true) in
  Engine.cancel h;
  Engine.run e ~until:2.0;
  Alcotest.(check bool) "cancelled not fired" false !fired

let test_schedule_during_event () =
  let e = Engine.create () in
  let log = ref [] in
  ignore
    (Engine.schedule_at e ~time:1.0 (fun () ->
         log := "outer" :: !log;
         ignore
           (Engine.schedule_after e ~delay:0.5 (fun () ->
                log := "inner" :: !log))));
  Engine.run e ~until:2.0;
  Alcotest.(check (list string)) "nested" [ "outer"; "inner" ] (List.rev !log)

let test_time_reversal () =
  let e = Engine.create () in
  Engine.run e ~until:5.0;
  (try
     ignore (Engine.schedule_at e ~time:1.0 (fun () -> ()));
     Alcotest.fail "expected Time_reversal"
   with Engine.Time_reversal { now; requested } ->
     Alcotest.(check (float 1e-9)) "now" 5.0 now;
     Alcotest.(check (float 1e-9)) "requested" 1.0 requested);
  try
    Engine.run e ~until:1.0;
    Alcotest.fail "expected Time_reversal on run"
  with Engine.Time_reversal _ -> ()

let test_negative_delay () =
  let e = Engine.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule_after: negative delay") (fun () ->
      ignore (Engine.schedule_after e ~delay:(-1.0) (fun () -> ())))

let test_periodic () =
  let e = Engine.create () in
  let times = ref [] in
  let proc =
    Engine.every e ~period:1.0 ~start:0.5 (fun now -> times := now :: !times)
  in
  Engine.run e ~until:4.0;
  Alcotest.(check (list (float 1e-9)))
    "fires at start + k*period" [ 0.5; 1.5; 2.5; 3.5 ] (List.rev !times);
  Engine.stop_periodic proc;
  Engine.run e ~until:10.0;
  Alcotest.(check int) "stopped" 4 (List.length !times)

let test_periodic_stop_within_callback () =
  let e = Engine.create () in
  let count = ref 0 in
  let proc_ref = ref None in
  let proc =
    Engine.every e ~period:1.0 ~start:1.0 (fun _ ->
        incr count;
        if !count = 2 then
          match !proc_ref with
          | Some p -> Engine.stop_periodic p
          | None -> ())
  in
  proc_ref := Some proc;
  Engine.run e ~until:10.0;
  Alcotest.(check int) "stopped from inside" 2 !count

let test_run_until_idle () =
  let e = Engine.create () in
  let fired = ref 0 in
  ignore
    (Engine.schedule_at e ~time:100.0 (fun () ->
         incr fired;
         ignore (Engine.schedule_after e ~delay:50.0 (fun () -> incr fired))));
  run_until_idle e;
  Alcotest.(check int) "all chased down" 2 !fired;
  run_until_idle e;
  Alcotest.(check int) "nothing left" 2 !fired

(* ------------------------------------------------------------------ *)
(* Trace                                                                *)
(* ------------------------------------------------------------------ *)

module Trace = Smart_sim.Trace

let messages entries = List.map (fun e -> e.Trace.message) entries

let in_category category entries =
  List.filter (fun e -> String.equal e.Trace.category category) entries

let test_trace_basic () =
  let t = Trace.create ~capacity:10 () in
  Trace.recordf t ~now:1.0 ~category:"net" "first";
  Trace.recordf t ~now:2.0 ~category:"flow" "answer %d" 42;
  (match Trace.entries t with
  | [ a; b ] ->
    Alcotest.(check string) "first message" "first" a.Trace.message;
    Alcotest.(check string) "formatted" "answer 42" b.Trace.message;
    Alcotest.(check (float 1e-9)) "timestamp" 2.0 b.Trace.time
  | _ -> Alcotest.fail "expected two entries");
  Alcotest.(check (list string)) "category" [ "first" ]
    (messages (in_category "net" (Trace.entries t)))

let test_trace_ring_overflow () =
  let t = Trace.create ~capacity:4 () in
  for i = 1 to 10 do
    Trace.recordf t ~now:(float_of_int i) ~category:"c" "%d" i
  done;
  Alcotest.(check (list string)) "latest four, oldest first"
    [ "7"; "8"; "9"; "10" ]
    (messages (Trace.entries t))

let test_trace_captures_network_events () =
  let trace = Trace.create () in
  let c = Smart_host.Cluster.create ~trace () in
  let spec = Smart_host.Testbed.spec_of_name "helene" in
  let a = Smart_host.Cluster.add_machine c spec in
  let b =
    Smart_host.Cluster.add_machine c
      { spec with Smart_host.Machine.name = "x"; ip = "10.0.0.9" }
  in
  ignore (Smart_host.Cluster.link c ~a ~b Smart_host.Testbed.lan_conf);
  let done_ = ref false in
  ignore
    (Smart_net.Flow.start (Smart_host.Cluster.flows c) ~src:a ~dst:b
       ~bytes:100_000 ~on_complete:(fun _ -> done_ := true));
  run_until_idle (Smart_host.Cluster.engine c);
  Alcotest.(check bool) "flow completed" true !done_;
  let flow_events = in_category "flow" (Trace.entries trace) in
  Alcotest.(check int) "start + complete" 2 (List.length flow_events)

let prop_ordering =
  QCheck.Test.make ~name:"random schedules execute in key order" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 100) (float_range 0.0 100.0))
    (fun times ->
      let e = Engine.create () in
      let fired = ref [] in
      List.iter
        (fun t ->
          ignore
            (Engine.schedule_at e ~time:t (fun () ->
                 fired := Engine.now e :: !fired)))
        times;
      Engine.run e ~until:101.0;
      let seen = List.rev !fired in
      List.sort compare times = seen)

(* ------------------------------------------------------------------ *)
(* Fault-injection plane                                                *)
(* ------------------------------------------------------------------ *)

module Faults = Smart_sim.Faults

let test_faults_fire_in_order () =
  let e = Engine.create () in
  let m = Smart_util.Metrics.create () in
  let injected () = Smart_util.Metrics.counter_value m "faults.injected_total" in
  let applied = ref [] in
  Faults.install ~metrics:m ~engine:e
    ~apply:(fun a -> applied := Faults.action_kind a :: !applied)
    [
      { Faults.at = 3.0; action = Faults.Restart_node "a" };
      { Faults.at = 1.0; action = Faults.Crash_node "a" };
      { Faults.at = 2.0; action = Faults.Partition_host "a" };
    ];
  Alcotest.(check int) "none injected yet" 0 (injected ());
  Engine.run e ~until:2.5;
  Alcotest.(check (list string)) "time order"
    [ "crash_node"; "partition_host" ]
    (List.rev !applied);
  Alcotest.(check int) "two injected" 2 (injected ());
  Engine.run e ~until:10.0;
  Alcotest.(check int) "all injected" 3 (injected ())

let test_faults_metered () =
  let e = Engine.create () in
  let m = Smart_util.Metrics.create () in
  let plan =
    [
      { Faults.at = 1.0; action = Faults.Crash_node "x" };
      { Faults.at = 2.0; action = Faults.Crash_node "y" };
      { Faults.at = 3.0; action = Faults.Corrupt_frames 0.02 };
    ]
  in
  Faults.install ~metrics:m ~engine:e ~apply:(fun _ -> ()) plan;
  Engine.run e ~until:10.0;
  let cv name =
    match Smart_util.Metrics.find m name with
    | Some (Smart_util.Metrics.Counter c) -> c
    | _ -> Alcotest.failf "missing counter %s" name
  in
  Alcotest.(check int) "total" 3 (cv "faults.injected_total");
  Alcotest.(check int) "crashes" 2 (cv "faults.crash_node_total");
  Alcotest.(check int) "corruptions" 1 (cv "faults.corrupt_frames_total")

let test_faults_past_event_rejected () =
  let e = Engine.create () in
  Engine.run e ~until:5.0;
  Alcotest.(check bool) "time reversal rejected" true
    (try
       Faults.install ~engine:e ~apply:(fun _ -> ())
         [ { Faults.at = 1.0; action = Faults.Crash_node "x" } ];
       false
     with Engine.Time_reversal _ -> true)

let () =
  Alcotest.run "smart_sim"
    [
      ( "engine",
        [
          Alcotest.test_case "event ordering" `Quick test_event_ordering;
          Alcotest.test_case "simultaneous FIFO" `Quick test_simultaneous_fifo;
          Alcotest.test_case "partial run" `Quick test_run_partial;
          Alcotest.test_case "cancel" `Quick test_cancel;
          Alcotest.test_case "schedule during event" `Quick
            test_schedule_during_event;
          Alcotest.test_case "time reversal" `Quick test_time_reversal;
          Alcotest.test_case "negative delay" `Quick test_negative_delay;
          Alcotest.test_case "run until idle" `Quick test_run_until_idle;
        ] );
      ( "periodic",
        [
          Alcotest.test_case "regular firings" `Quick test_periodic;
          Alcotest.test_case "stop within callback" `Quick
            test_periodic_stop_within_callback;
        ] );
      ( "trace",
        [
          Alcotest.test_case "record and filter" `Quick test_trace_basic;
          Alcotest.test_case "ring overflow" `Quick test_trace_ring_overflow;
          Alcotest.test_case "captures network events" `Quick
            test_trace_captures_network_events;
        ] );
      ( "faults",
        [
          Alcotest.test_case "fire in order" `Quick test_faults_fire_in_order;
          Alcotest.test_case "metered" `Quick test_faults_metered;
          Alcotest.test_case "past event rejected" `Quick
            test_faults_past_event_rejected;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest [ prop_ordering ]);
    ]
