(* The traced run's probe pass: after the traced loop, every layer the
   workload's own request path never called gets timed on the
   workload's inputs, so each per-layer figure is a measurement on every
   workload.  The entry points (a wizard request, a federated request)
   are probed only where the traced loop recorded none.  Probe spans
   hang under [Probe] roots, which the per-request layer sum ignores. *)

module C = Smart_core
module P = Smart_proto
module R = Smart_lang.Requirement
module M = Meter
module S = Steps
module W = Workloads

let probe_requests = 256
let probe_repeats = 16

(* Entry-point probes run many more calls: their self time is a small
   share of the call (about a tenth on a cached wizard request), and a
   stall of the host landing in one replay must not outweigh it. *)
let probe_entries = 4096

(* Run [f] [n] times, each under its own [Probe] root. *)
let each sp ~first n f =
  for j = 0 to n - 1 do
    if M.room sp 16 then begin
      let req = first + j in
      let root = M.start sp ~req ~parent:(-1) M.Probe in
      f ~req ~parent:root j;
      M.finish sp root
    end
  done

let run sp (kit : W.kit) ~first =
  let requests = kit.W.k_requests in
  let entry j = requests.(j mod Array.length requests) in
  let text (q : Plane.request) = kit.W.k_texts.(q.Plane.text) in
  let t = kit.W.k_wizard in
  let missing layer = (M.layer_stats sp layer).M.calls = 0 in
  if missing M.Handle_request then
    each sp ~first probe_entries (fun ~req ~parent j ->
        let q = entry j in
        ignore
          (S.wizard_request_traced sp ~req ~parent t ~now:0.0 ~from:S.client_addr
             ~text:(text q) ~wanted:q.wanted ~seq:(j + 1) q.datagram));
  if missing M.Fed_request then
    each sp ~first probe_entries (fun ~req ~parent j ->
        let q = entry j in
        ignore
          (S.fed_request_traced sp ~req ~parent kit.W.k_fed ~now:0.0 ~text:(text q)
             ~wanted:q.wanted ~seq:(j + 1) q.datagram));
  (* front end and both selection scans on the workload's own texts *)
  each sp ~first probe_requests (fun ~req ~parent j ->
      let q = entry j in
      let source = text q in
      ignore (M.timed sp ~req ~parent M.Cache_key (fun () -> R.cache_key source));
      match M.timed sp ~req ~parent M.Compile (fun () -> R.compile_fast source) with
      | Error _ -> ()
      | Ok fast ->
        let view = S.view t in
        ignore
          (M.timed sp ~req ~parent M.Select_columns (fun () ->
               C.Selection.select_columns t.S.scratch ~fast ~view ~wanted:q.wanted));
        ignore
          (M.timed sp ~req ~parent M.Select_scored (fun () ->
               C.Selection.select_scored t.S.scratch ~fast ~view ~wanted:q.wanted)));
  (* a full snapshot rebuild: re-storing the security table bumps the
     generation without changing a value *)
  each sp ~first probe_repeats (fun ~req ~parent _ ->
      C.Status_db.replace_sec t.S.db (C.Status_db.sec_record t.S.db);
      ignore (M.timed sp ~req ~parent M.Columns (fun () -> S.view t)));
  each sp ~first probe_repeats (fun ~req ~parent _ ->
      let receiver = C.Receiver.create ~order:Plane.order (C.Status_db.create ()) in
      ignore
        (M.timed sp ~req ~parent M.Receiver_push (fun () ->
             C.Receiver.handle_stream receiver ~from:"probe" kit.W.k_push)));
  each sp ~first (4 * probe_repeats) (fun ~req ~parent _ ->
      M.timed sp ~req ~parent M.Socket_setup (fun () ->
          Smart_realnet.Udp_io.stop (Smart_realnet.Udp_io.bind_port 0)));
  let client = C.Client.create ~rng:(Smart_util.Prng.create ~seed:1) () in
  let replies = Array.of_list kit.W.k_replies in
  each sp ~first (Array.length replies) (fun ~req ~parent j ->
      let request, data = replies.(j) in
      ignore
        (M.timed sp ~req ~parent M.Check_reply (fun () ->
             C.Client.check_reply client request data)))
