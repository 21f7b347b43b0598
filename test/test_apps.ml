(* Tests for the application layer: the matrix block decomposition, the
   distributed matmul simulation, and massd. *)

module A = Smart_apps
module H = Smart_host

(* ------------------------------------------------------------------ *)
(* Matrix                                                               *)
(* ------------------------------------------------------------------ *)

let test_blocks_cover_exactly () =
  List.iter
    (fun (n, blk) ->
      let blocks = A.Matrix.blocks ~n ~blk in
      let covered = Array.make_matrix n n 0 in
      List.iter
        (fun (b : A.Matrix.block) ->
          for i = b.A.Matrix.row0 to b.A.Matrix.row0 + b.A.Matrix.rows - 1 do
            for j = b.A.Matrix.col0 to b.A.Matrix.col0 + b.A.Matrix.cols - 1 do
              covered.(i).(j) <- covered.(i).(j) + 1
            done
          done)
        blocks;
      Array.iter
        (Array.iter (fun c ->
             Alcotest.(check int) "each cell exactly once" 1 c))
        covered)
    [ (10, 3); (12, 4); (7, 7); (5, 1) ]

let test_task_accounting () =
  let blocks = A.Matrix.blocks ~n:1500 ~blk:200 in
  (* 8 per side, 64 blocks; edge blocks are 100 wide *)
  Alcotest.(check int) "64 tasks" 64 (List.length blocks);
  let total_ops =
    List.fold_left (fun acc b -> acc + A.Matrix.task_ops ~n:1500 b) 0 blocks
  in
  Alcotest.(check int) "ops sum to n^3" (1500 * 1500 * 1500) total_ops;
  let total_out =
    List.fold_left (fun acc b -> acc + A.Matrix.task_output_bytes b) 0 blocks
  in
  Alcotest.(check int) "result bytes = n^2 doubles" (1500 * 1500 * 8) total_out

(* ------------------------------------------------------------------ *)
(* Distributed matmul                                                   *)
(* ------------------------------------------------------------------ *)

let run_matmul ?(n = 600) ?(blk = 200) workers =
  let c = H.Testbed.icpp2005 () in
  let resolve = H.Cluster.resolve_exn c in
  (c, A.Matmul.run c ~master:(resolve "sagit")
        ~workers:(List.map resolve workers) ~n ~blk)

let test_matmul_all_tasks_done () =
  let _, r = run_matmul [ "dalmatian"; "dione" ] in
  Alcotest.(check int) "9 tasks for 600/200" 9 r.A.Matmul.tasks;
  let done_total =
    List.fold_left (fun acc w -> acc + w.A.Matmul.tasks_done) 0
      r.A.Matmul.workers
  in
  Alcotest.(check int) "all tasks completed" 9 done_total;
  Alcotest.(check bool) "positive makespan" true (r.A.Matmul.makespan > 0.0)

let test_matmul_fast_beats_slow () =
  let _, fast = run_matmul [ "dalmatian"; "dione" ] in
  let _, slow = run_matmul [ "telesto"; "mimas" ] in
  Alcotest.(check bool) "fast pair wins" true
    (fast.A.Matmul.makespan < slow.A.Matmul.makespan)

let test_matmul_more_workers_faster () =
  let _, two = run_matmul ~n:1200 [ "helene"; "phoebe" ] in
  let _, four = run_matmul ~n:1200 [ "helene"; "phoebe"; "calypso"; "mimas" ] in
  Alcotest.(check bool) "four beat two" true
    (four.A.Matmul.makespan < two.A.Matmul.makespan)

let test_matmul_loaded_worker_slower () =
  let c = H.Testbed.icpp2005 () in
  let resolve = H.Cluster.resolve_exn c in
  let node = resolve "helene" in
  ignore
    (H.Machine.add_workload (H.Cluster.machine c node) ~now:0.0
       (H.Machine.cpu_hog ~demand:1.0));
  let loaded =
    A.Matmul.run c ~master:(resolve "sagit") ~workers:[ node ] ~n:600 ~blk:200
  in
  let _, idle = run_matmul ~n:600 [ "helene" ] in
  Alcotest.(check bool) "competing load halves the rate" true
    (loaded.A.Matmul.makespan > 1.6 *. idle.A.Matmul.makespan)

let test_matmul_self_scheduling_balance () =
  (* a fast and a slow worker: the fast one must take more tasks *)
  let _, r = run_matmul ~n:1200 ~blk:200 [ "dalmatian"; "telesto" ] in
  let tasks name =
    (List.find (fun w -> w.A.Matmul.host = name) r.A.Matmul.workers)
      .A.Matmul.tasks_done
  in
  Alcotest.(check bool) "fast worker does more" true
    (tasks "dalmatian" > tasks "telesto")

let test_matmul_load_visible_during_run () =
  (* during the computation the worker machine shows load *)
  let c = H.Testbed.icpp2005 () in
  let resolve = H.Cluster.resolve_exn c in
  let node = resolve "dione" in
  let machine = H.Cluster.machine c node in
  ignore
    (A.Matmul.run c ~master:(resolve "sagit") ~workers:[ node ] ~n:1000
       ~blk:250);
  (* after the run the serving job is removed, but jiffies accumulated *)
  Alcotest.(check bool) "busy jiffies recorded" true
    (machine.H.Machine.jiffies_user > 0.0);
  Alcotest.(check (float 1e-6)) "job cleaned up" 0.0
    (H.Machine.cpu_demand machine)

let test_matmul_local_time_fig52_shape () =
  let c = H.Testbed.icpp2005 () in
  let t name =
    A.Matmul.local_time
      ~machine:(H.Cluster.machine c (H.Cluster.resolve_exn c name))
      ~n:1500
  in
  Alcotest.(check bool) "P4-2.4 fastest" true (t "dalmatian" < t "sagit");
  Alcotest.(check bool) "P3-866 beats P4-1.7" true (t "sagit" < t "helene");
  Alcotest.(check bool) "P4-1.6 slowest" true (t "telesto" > t "pandora-x")

(* ------------------------------------------------------------------ *)
(* Massd                                                                *)
(* ------------------------------------------------------------------ *)

let shaped_cluster rates =
  let c = H.Testbed.icpp2005 () in
  List.iter
    (fun (host, mbps) ->
      ignore
        (H.Cluster.shape_access c
           ~node:(H.Cluster.resolve_exn c host)
           ~rate_bytes_per_sec:
             (Some (Smart_util.Units.mbps_to_bytes_per_sec mbps))))
    rates;
  c

let test_massd_single_server_rate () =
  let c = shaped_cluster [ ("lhost", 8.0) ] in
  let resolve = H.Cluster.resolve_exn c in
  let r =
    A.Massd.run c ~client:(resolve "sagit") ~servers:[ resolve "lhost" ]
      ~data_kb:5000 ~blk_kb:100
  in
  let mbps = Smart_util.Units.bytes_per_sec_to_mbps r.A.Massd.throughput in
  Alcotest.(check bool) "throughput tracks shaper" true
    (mbps > 7.0 && mbps < 8.2);
  Alcotest.(check int) "bytes accounted" (5000 * 1024) r.A.Massd.bytes_total

let test_massd_parallel_additive () =
  let c = shaped_cluster [ ("lhost", 4.0); ("mimas", 4.0) ] in
  let resolve = H.Cluster.resolve_exn c in
  let r =
    A.Massd.run c ~client:(resolve "sagit")
      ~servers:[ resolve "lhost"; resolve "mimas" ]
      ~data_kb:5000 ~blk_kb:100
  in
  let mbps = Smart_util.Units.bytes_per_sec_to_mbps r.A.Massd.throughput in
  Alcotest.(check bool) "two 4 Mbps servers ~ 8 Mbps" true
    (mbps > 7.0 && mbps < 8.4)

let test_massd_fast_server_carries_more () =
  let c = shaped_cluster [ ("lhost", 8.0); ("pandora-x", 1.0) ] in
  let resolve = H.Cluster.resolve_exn c in
  let r =
    A.Massd.run c ~client:(resolve "sagit")
      ~servers:[ resolve "lhost"; resolve "pandora-x" ]
      ~data_kb:5000 ~blk_kb:100
  in
  let blocks name =
    (List.find
       (fun (s : A.Massd.server_stats) -> s.A.Massd.host = name)
       r.A.Massd.servers)
      .A.Massd.blocks
  in
  Alcotest.(check bool) "fast server took more blocks" true
    (blocks "lhost" > 4 * blocks "pandora-x");
  Alcotest.(check int) "all 50 blocks" 50
    (blocks "lhost" + blocks "pandora-x")

let test_massd_block_remainder () =
  let c = shaped_cluster [ ("lhost", 8.0) ] in
  let resolve = H.Cluster.resolve_exn c in
  (* 1050 KB in 100 KB blocks: 11 blocks, last one 50 KB *)
  let r =
    A.Massd.run c ~client:(resolve "sagit") ~servers:[ resolve "lhost" ]
      ~data_kb:1050 ~blk_kb:100
  in
  let total =
    List.fold_left (fun acc s -> acc + s.A.Massd.bytes) 0 r.A.Massd.servers
  in
  Alcotest.(check int) "exact bytes downloaded" (1050 * 1024) total

let test_massd_failover () =
  (* the fault-tolerance extension: a server dies mid-download, its
     in-flight block is requeued, the survivor finishes the whole file *)
  let c = shaped_cluster [ ("lhost", 4.0); ("mimas", 4.0) ] in
  let resolve = H.Cluster.resolve_exn c in
  let r =
    A.Massd.run c
      ~failures:[ { A.Massd.host = "mimas"; at = 2.0 } ]
      ~client:(resolve "sagit")
      ~servers:[ resolve "lhost"; resolve "mimas" ]
      ~data_kb:4000 ~blk_kb:100
  in
  let bytes name =
    (List.find
       (fun (s : A.Massd.server_stats) -> s.A.Massd.host = name)
       r.A.Massd.servers)
      .A.Massd.bytes
  in
  Alcotest.(check int) "every byte still delivered" (4000 * 1024)
    (bytes "lhost" + bytes "mimas");
  Alcotest.(check bool) "survivor carried most of it" true
    (bytes "lhost" > 3 * bytes "mimas");
  (* compare with an undisturbed run: the failure must cost time *)
  let c2 = shaped_cluster [ ("lhost", 4.0); ("mimas", 4.0) ] in
  let resolve2 = H.Cluster.resolve_exn c2 in
  let healthy =
    A.Massd.run c2 ~client:(resolve2 "sagit")
      ~servers:[ resolve2 "lhost"; resolve2 "mimas" ]
      ~data_kb:4000 ~blk_kb:100
  in
  Alcotest.(check bool) "failure costs throughput" true
    (r.A.Massd.elapsed > healthy.A.Massd.elapsed)

let test_massd_all_servers_die () =
  let c = shaped_cluster [ ("lhost", 4.0) ] in
  let resolve = H.Cluster.resolve_exn c in
  let r =
    A.Massd.run c
      ~failures:[ { A.Massd.host = "lhost"; at = 1.0 } ]
      ~client:(resolve "sagit")
      ~servers:[ resolve "lhost" ]
      ~data_kb:50000 ~blk_kb:100
  in
  (* the run terminates (rather than hanging) with a partial download *)
  Alcotest.(check bool) "partial download" true
    (List.fold_left (fun acc s -> acc + s.A.Massd.bytes) 0 r.A.Massd.servers
    < 50000 * 1024)

let test_massd_failure_unknown_host () =
  let c = shaped_cluster [] in
  let resolve = H.Cluster.resolve_exn c in
  Alcotest.(check bool) "unknown failure host rejected" true
    (try
       ignore
         (A.Massd.run c
            ~failures:[ { A.Massd.host = "nope"; at = 1.0 } ]
            ~client:(resolve "sagit")
            ~servers:[ resolve "lhost" ]
            ~data_kb:100 ~blk_kb:10);
       false
     with Invalid_argument _ -> true)

let test_massd_bad_args () =
  let c = H.Testbed.icpp2005 () in
  let resolve = H.Cluster.resolve_exn c in
  Alcotest.(check bool) "no servers" true
    (try
       ignore (A.Massd.run c ~client:(resolve "sagit") ~servers:[] ~data_kb:1 ~blk_kb:1);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad sizes" true
    (try
       ignore
         (A.Massd.run c ~client:(resolve "sagit")
            ~servers:[ resolve "lhost" ] ~data_kb:0 ~blk_kb:1);
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "smart_apps"
    [
      ( "matrix",
        [
          Alcotest.test_case "blocks cover exactly" `Quick
            test_blocks_cover_exactly;
          Alcotest.test_case "task accounting" `Quick test_task_accounting;
        ] );
      ( "matmul",
        [
          Alcotest.test_case "all tasks done" `Quick test_matmul_all_tasks_done;
          Alcotest.test_case "fast beats slow" `Quick test_matmul_fast_beats_slow;
          Alcotest.test_case "more workers faster" `Quick
            test_matmul_more_workers_faster;
          Alcotest.test_case "loaded worker slower" `Quick
            test_matmul_loaded_worker_slower;
          Alcotest.test_case "self-scheduling balance" `Quick
            test_matmul_self_scheduling_balance;
          Alcotest.test_case "load cleanup" `Quick
            test_matmul_load_visible_during_run;
          Alcotest.test_case "Fig 5.2 local times" `Quick
            test_matmul_local_time_fig52_shape;
        ] );
      ( "massd",
        [
          Alcotest.test_case "single server rate" `Quick
            test_massd_single_server_rate;
          Alcotest.test_case "parallel additive" `Quick
            test_massd_parallel_additive;
          Alcotest.test_case "fast carries more" `Quick
            test_massd_fast_server_carries_more;
          Alcotest.test_case "block remainder" `Quick test_massd_block_remainder;
          Alcotest.test_case "failover requeues blocks" `Quick
            test_massd_failover;
          Alcotest.test_case "all servers die" `Quick test_massd_all_servers_die;
          Alcotest.test_case "failure host validated" `Quick
            test_massd_failure_unknown_host;
          Alcotest.test_case "bad arguments" `Quick test_massd_bad_args;
        ] );
    ]
