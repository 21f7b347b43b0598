(* One request through each in-process entry point, untraced and traced.

   The traced variants time the entry call as a span, then replay the
   layer calls it made inside — on the same inputs, through the same
   public functions — as child spans of that call.  The entry's self
   time is what no layer claims: admission, LRU lookups, metering and
   glue.  Which inner layers ran is read off the components' own stats
   accessors around the call (cache hits skip compile and select). *)

module C = Smart_core
module P = Smart_proto
module R = Smart_lang.Requirement
module M = Meter

let client_addr = { C.Output.host = "client"; port = 4000 }
let root_addr = { C.Output.host = "root"; port = P.Ports.fed }

let reply_of = function C.Output.Udp { data; _ } :: _ -> Some data | _ -> None

(* ------------------------------------------------------------------ *)
(* Answer checking                                                      *)
(* ------------------------------------------------------------------ *)

let mismatches_printed = ref 0

let report_mismatch ~what ~index ~got ~expected =
  if !mismatches_printed < 8 then begin
    incr mismatches_printed;
    Printf.eprintf "mismatch: %s request %d: got [%s], expected [%s]\n%!" what
      index (String.concat " " got) (String.concat " " expected)
  end

let report_error ~what ~index msg =
  if !mismatches_printed < 8 then begin
    incr mismatches_printed;
    Printf.eprintf "failure: %s request %d: %s\n%!" what index msg
  end

(* A decodable reply for [seq], neither shed nor stale. *)
let decode ~what ~index ~seq data =
  match P.Wizard_msg.decode_reply data with
  | Error e ->
    report_error ~what ~index e;
    None
  | Ok r when r.P.Wizard_msg.seq <> seq || r.rejected || r.degraded ->
    report_error ~what ~index "wrong seq or flagged reply";
    None
  | Ok r -> Some r.P.Wizard_msg.servers

let check ~what ~index ~seq ~expected data =
  match decode ~what ~index ~seq data with
  | None -> false
  | Some got ->
    List.equal String.equal got expected
    || (report_mismatch ~what ~index ~got ~expected;
        false)

(* The deliberately corrupted reply of the self-test: one bogus server
   appended, which no oracle answer contains. *)
let corrupt data =
  match P.Wizard_msg.decode_reply data with
  | Ok r ->
    P.Wizard_msg.encode_reply
      { r with P.Wizard_msg.servers = r.P.Wizard_msg.servers @ [ "corrupted" ] }
  | Error _ -> data ^ "x"

(* ------------------------------------------------------------------ *)
(* In-process wizard                                                    *)
(* ------------------------------------------------------------------ *)

type wizard = {
  wizard : C.Wizard.t;
  db : C.Status_db.t;
  scratch : C.Selection.scratch;  (* the replays' own select buffers *)
  compiled : (string, R.fast) Hashtbl.t;  (* programs for select replays *)
}

let wizard_of wizard db =
  { wizard; db; scratch = C.Selection.scratch (); compiled = Hashtbl.create 64 }

let net_for t host = C.Wizard.net_entry_for t.wizard ~host

let view t = C.Status_db.columns t.db ~net_for:(net_for t)

let fast t text =
  match Hashtbl.find_opt t.compiled text with
  | Some f -> Some f
  | None ->
    (match R.compile_fast text with
    | Ok f ->
      Hashtbl.replace t.compiled text f;
      Some f
    | Error _ -> None)

let wizard_request t ~now ~from datagram =
  reply_of (C.Wizard.handle_request t.wizard ~now ~from datagram)

(* Replays pollute the caches and the minor heap the next request
   meets, so the traced loop replays on one request in [replay_every];
   the others time the bare call.  Probes replay on every call. *)
let replay_every = 4

let wizard_request_traced ?(replay = true) sp ~req ~parent t ~now ~from ~text
    ~wanted ~seq datagram =
  if not replay then
    reply_of
      (M.timed sp ~req ~parent M.Handle_bare (fun () ->
           C.Wizard.handle_request t.wizard ~now ~from datagram))
  else
  let _, result_misses = C.Wizard.result_cache_stats t.wizard in
  let _, compile_misses = C.Wizard.compile_cache_stats t.wizard in
  let h = M.start sp ~req ~parent M.Handle_request in
  let outputs = C.Wizard.handle_request t.wizard ~now ~from datagram in
  M.finish sp h;
  let _, result_misses' = C.Wizard.result_cache_stats t.wizard in
  let _, compile_misses' = C.Wizard.compile_cache_stats t.wizard in
  let replay layer f = ignore (M.timed sp ~req ~parent:h layer f) in
  replay M.Decode_request (fun () -> P.Wizard_msg.decode_request datagram);
  replay M.Cache_key (fun () -> R.cache_key text);
  if compile_misses' > compile_misses then begin
    match M.timed sp ~req ~parent:h M.Compile (fun () -> R.compile_fast text) with
    | Ok f -> Hashtbl.replace t.compiled text f
    | Error _ -> ()
  end;
  (if result_misses' > result_misses then
     match fast t text with
     | Some fast ->
       let view = view t in
       replay M.Select_columns (fun () ->
           C.Selection.select_columns t.scratch ~fast ~view ~wanted)
     | None -> ());
  (match outputs with
  | [] -> ()
  | _ :: _ ->
    let servers = Option.value (C.Wizard.last_result t.wizard) ~default:[] in
    replay M.Encode_reply (fun () ->
        P.Wizard_msg.encode_reply
          { P.Wizard_msg.seq; servers; degraded = false; rejected = false }));
  reply_of outputs

(* ------------------------------------------------------------------ *)
(* Federation: root plus shard wizards, datagrams pumped in process     *)
(* ------------------------------------------------------------------ *)

type fed = {
  root : C.Fed_root.t;
  shards : (string, wizard) Hashtbl.t;
  mutable requests : int;  (* traced requests, for the per-request figures *)
  mutable bytes : int;  (* subquery plus shard-reply bytes, traced *)
  mutable subqueries : int;
  mutable useful : int;  (* subqueries whose shard returned a candidate *)
}

let fed_of root shards =
  let table = Hashtbl.create 8 in
  List.iter (fun (name, w) -> Hashtbl.replace table name w) shards;
  { root; shards = table; requests = 0; bytes = 0; subqueries = 0; useful = 0 }

(* A root over one shard: the federation path on a workload whose own
   deployment is flat. *)
let single_shard (t : wizard) =
  let name = "probe" in
  let root =
    C.Fed_root.create ~clock:M.clock_s
      {
        C.Fed_root.shards =
          [ { C.Fed_root.name; addr = { C.Output.host = name; port = P.Ports.fed } } ];
        fanout_timeout = 1.0;
        routing = true;
      }
  in
  C.Fed_root.note_digest root
    (C.Status_db.summary t.db ~shard:name ~net_for:(net_for t));
  fed_of root [ (name, t) ]

let shard_of f (dst : C.Output.address) = Hashtbl.find f.shards dst.C.Output.host

(* Subqueries first, then every shard reply back into the root; the
   last reply releases the merged answer. *)
let fed_request f ~now datagram =
  match C.Fed_root.handle_request f.root ~now ~from:client_addr datagram with
  | [ C.Output.Udp { dst; data } ] when String.equal dst.C.Output.host "client"
    ->
    Some data
  | subqueries ->
    let replies =
      List.concat_map
        (function
          | C.Output.Udp { dst; data } ->
            C.Wizard.handle_subquery (shard_of f dst).wizard ~from:root_addr data
          | C.Output.Stream _ -> [])
        subqueries
    in
    List.fold_left
      (fun acc -> function
        | C.Output.Udp { data; _ } ->
          (match reply_of (C.Fed_root.handle_reply f.root data) with
          | Some _ as r -> r
          | None -> acc)
        | C.Output.Stream _ -> acc)
      None replies

let subquery_traced sp ~req ~parent (t : wizard) data =
  let _, compile_misses = C.Wizard.compile_cache_stats t.wizard in
  let s = M.start sp ~req ~parent M.Subquery in
  let outputs = C.Wizard.handle_subquery t.wizard ~from:root_addr data in
  M.finish sp s;
  let _, compile_misses' = C.Wizard.compile_cache_stats t.wizard in
  (match P.Fed_msg.decode_query data with
  | Error _ -> ()
  | Ok q ->
    let text = q.P.Fed_msg.requirement in
    ignore (M.timed sp ~req ~parent:s M.Cache_key (fun () -> R.cache_key text));
    if compile_misses' > compile_misses then begin
      match M.timed sp ~req ~parent:s M.Compile (fun () -> R.compile_fast text) with
      | Ok f -> Hashtbl.replace t.compiled text f
      | Error _ -> ()
    end;
    (match fast t text with
    | Some fast ->
      let view = view t in
      ignore
        (M.timed sp ~req ~parent:s M.Select_scored (fun () ->
             C.Selection.select_scored t.scratch ~fast ~view
               ~wanted:q.P.Fed_msg.wanted))
    | None -> ()));
  outputs

let fed_request_traced sp ~req ~parent f ~now ~text ~wanted ~seq datagram =
  f.requests <- f.requests + 1;
  let r = M.start sp ~req ~parent M.Fed_request in
  let outputs = C.Fed_root.handle_request f.root ~now ~from:client_addr datagram in
  M.finish sp r;
  let replay parent layer g = ignore (M.timed sp ~req ~parent layer g) in
  replay r M.Decode_request (fun () -> P.Wizard_msg.decode_request datagram);
  (* the root keys its analysis cache, and canonicalises the text again
     when it fans out *)
  replay r M.Cache_key (fun () -> R.cache_key text);
  let encode_final parent servers =
    replay parent M.Encode_reply (fun () ->
        P.Wizard_msg.encode_reply
          { P.Wizard_msg.seq; servers; degraded = false; rejected = false })
  in
  match outputs with
  | [ C.Output.Udp { dst; data } ] when String.equal dst.C.Output.host "client"
    ->
    encode_final r [];
    Some data
  | subqueries ->
    replay r M.Cache_key (fun () -> R.cache_key text);
    let replies =
      List.concat_map
        (function
          | C.Output.Udp { dst; data } ->
            f.bytes <- f.bytes + String.length data;
            f.subqueries <- f.subqueries + 1;
            subquery_traced sp ~req ~parent (shard_of f dst) data
          | C.Output.Stream _ -> [])
        subqueries
    in
    let candidates =
      List.filter_map
        (function
          | C.Output.Udp { data; _ } ->
            f.bytes <- f.bytes + String.length data;
            (match P.Fed_msg.decode_reply data with
            | Ok reply ->
              if reply.P.Fed_msg.candidates <> [] then f.useful <- f.useful + 1;
              Some (reply.P.Fed_msg.shard, reply.P.Fed_msg.candidates)
            | Error _ -> None)
          | C.Output.Stream _ -> None)
        replies
    in
    List.fold_left
      (fun acc -> function
        | C.Output.Udp { data; _ } ->
          let h = M.start sp ~req ~parent M.Fed_reply in
          let out = C.Fed_root.handle_reply f.root data in
          M.finish sp h;
          (match reply_of out with
          | Some _ as final ->
            (* the last reply merged and encoded the answer *)
            replay h M.Merge (fun () -> C.Selection.merge_candidates ~wanted candidates);
            encode_final h (Option.value (C.Fed_root.last_result f.root) ~default:[]);
            final
          | None -> acc)
        | C.Output.Stream _ -> acc)
      None replies
