(* The wizard's server-selection algorithm (§3.6.1, Fig 1.4).

   Pure function from the columnar status snapshot and a compiled
   requirement to an ordered candidate list:

   1. every row of the snapshot is evaluated against the requirement by
      the bytecode interpreter, with the server-side variables read from
      its system columns, the monitor_* variables from the network
      columns and host_security_level from the security column;
   2. servers named by user_denied_hostN (by name or IP) are excluded
      outright — the Fig 1.4 blacklist;
   3. qualified servers named by user_preferred_hostN come first, in
      preference order; the remaining qualified servers follow in
      database (scan) order — unless the requirement assigns the special
      temp variable [order_by], in which case they are ranked by that
      expression's per-server value, descending.  ("The wizard needs to
      be modified to check multiple server reports for one requirement",
      Ch. 6: `order_by = host_memory_free` expresses "the servers with
      the largest memory".)
   4. the list is cut to min(wanted, max_reply_servers).

   The test suites hold this to a list-based reference selection over
   the tree-walking evaluator (test/oracle). *)

module B = Smart_lang.Bytecode

(* Reusable buffers for [select_columns]: two rank heaps plus two
   growable string buffers.  One scratch per wizard; reusing it keeps
   the per-request allocation down to the heap tuples and the reply
   list itself. *)
type scratch = {
  pref : string Smart_util.Heap.t;
      (* eligible preferred hosts, keyed by preference rank *)
  ranked : string Smart_util.Heap.t;
      (* eligible others under order_by, keyed by negated order key *)
  mutable plain : string array;  (* eligible others, scan order *)
  mutable plain_len : int;
  mutable nans : string array;   (* NaN order keys, scan order *)
  mutable nan_len : int;
  mutable qbuf : Bytes.t;        (* sweep plan: per-server verdicts *)
  mutable obuf : float array;    (* sweep plan: per-server order keys *)
}

let scratch () =
  {
    pref = Smart_util.Heap.create ();
    ranked = Smart_util.Heap.create ();
    plain = Array.make 64 "";
    plain_len = 0;
    nans = Array.make 16 "";
    nan_len = 0;
    qbuf = Bytes.make 64 '\000';
    obuf = Array.make 64 0.0;
  }

let grown buf len =
  if len < Array.length buf then buf
  else begin
    let fresh = Array.make (2 * Array.length buf) "" in
    Array.blit buf 0 fresh 0 len;
    fresh
  end

(* Row [row]'s standing under the compiled requirement: [ineligible]
   when it fails the requirement or a user_denied_hostN names it, else
   its preference rank (the position of the first user_preferred_hostN
   naming it) or [unranked].  The denied/preferred lists are the
   Addr-valued user parameters in assignment order, read off the uparam
   log; an entry matches by host name or IP.  Leaves the row's order_by
   key in the state. *)
let ineligible = -2

let unranked = -1

let eligibility ~(fast : Smart_lang.Requirement.fast)
    ~(view : Status_db.column_view) ~row =
  let prog = fast.Smart_lang.Requirement.prog in
  let st = fast.Smart_lang.Requirement.state in
  B.run ~stop_unqualified:true prog st view.Status_db.cols ~server:row;
  if not (B.qualified prog st) then ineligible
  else begin
    let host = view.Status_db.hosts.(row) in
    let ip = view.Status_db.ips.(row) in
    let denied = ref false in
    let rank = ref unranked in
    let pcount = ref 0 in
    for k = 0 to st.B.ulog_len - 1 do
      let tag = st.B.ulog_tag.(k) in
      if tag >= 0 then begin
        let entry = prog.B.pool.(tag) in
        if st.B.ulog_slot.(k) < B.preferred_slots then begin
          if
            !rank < 0 && (String.equal entry host || String.equal entry ip)
          then rank := !pcount;
          incr pcount
        end
        else if
          (not !denied) && (String.equal entry host || String.equal entry ip)
        then denied := true
      end
    done;
    if !denied then ineligible else !rank
  end

let qualifies ~fast ~view ~row = eligibility ~fast ~view ~row <> ineligible

(* The shared scan of the columnar fast path: evaluate the compiled
   requirement over every row and sort the eligible hosts into the
   scratch buffers.  Ordering replays the reference selection's list
   sorts exactly:

   - preferred hosts land in a rank-keyed min-heap whose insertion
     stamp breaks ties in scan order — [List.sort] on ranks is stable;
   - [order_by] candidates land in a min-heap keyed by the negated
     key (normalized by [+. 0.0] so -0.0 ties 0.0, as [Float.compare]
     does after the same normalization in the reference sort); NaN
     keys, which [Float.compare] orders below -infinity, stay in the
     [nans] stash (scan order) for the caller to emit after every real
     key;
   - without [order_by], eligible hosts fill [plain] in scan order. *)
let scan scratch ~(fast : Smart_lang.Requirement.fast)
    ~(view : Status_db.column_view) =
  let prog = fast.Smart_lang.Requirement.prog in
  let st = fast.Smart_lang.Requirement.state in
  let cols = view.Status_db.cols in
  Smart_util.Heap.clear scratch.pref;
  Smart_util.Heap.clear scratch.ranked;
  scratch.plain_len <- 0;
  scratch.nan_len <- 0;
  let emit_ordered host key =
    if Float.is_nan key then begin
      scratch.nans <- grown scratch.nans scratch.nan_len;
      scratch.nans.(scratch.nan_len) <- host;
      scratch.nan_len <- scratch.nan_len + 1
    end
    else Smart_util.Heap.push scratch.ranked ~key:(-.(key +. 0.0)) host
  in
  let emit_plain host =
    scratch.plain <- grown scratch.plain scratch.plain_len;
    scratch.plain.(scratch.plain_len) <- host;
    scratch.plain_len <- scratch.plain_len + 1
  in
  (match fast.Smart_lang.Requirement.sweep with
  | Some sw ->
    (* statement-major plan: all verdicts and order keys in one
       column-at-a-time pass, then a straight emit loop (the plan rules
       out user parameters, so no blacklist/preference scan) *)
    if Bytes.length scratch.qbuf < cols.B.n then begin
      scratch.qbuf <- Bytes.make (2 * cols.B.n) '\000';
      scratch.obuf <- Array.make (2 * cols.B.n) 0.0
    end;
    B.run_sweep sw cols ~qualified:scratch.qbuf ~order:scratch.obuf;
    let ordered = prog.B.has_order_by in
    for i = 0 to cols.B.n - 1 do
      if Bytes.get scratch.qbuf i <> '\000' then
        if ordered then
          emit_ordered view.Status_db.hosts.(i) scratch.obuf.(i)
        else emit_plain view.Status_db.hosts.(i)
    done
  | None ->
  for i = 0 to cols.B.n - 1 do
    let rank = eligibility ~fast ~view ~row:i in
    if rank <> ineligible then begin
      let host = view.Status_db.hosts.(i) in
      if rank >= 0 then
        Smart_util.Heap.push scratch.pref ~key:(float_of_int rank) host
      else if prog.B.has_order_by then
        emit_ordered host
          (if st.B.order_found then st.B.order_val else neg_infinity)
      else emit_plain host
    end
  done)

(* The reference selection's [take] only stops on exactly 0, so a
   negative [wanted] means "no cut" there; both drains replay that. *)
let cut_limit wanted =
  let limit = min wanted Smart_proto.Ports.max_reply_servers in
  if limit < 0 then max_int else limit

(* The flat wizard's answer: one pass over the columnar snapshot (the
   test suite pins it to the reference selection with a differential
   property).  NaN order keys are pushed after the scan with key
   +infinity so they pop after every real key — including real -infinity
   keys, whose earlier insertion stamps win the FIFO tie — still in scan
   order. *)
let select_columns scratch ~(fast : Smart_lang.Requirement.fast)
    ~(view : Status_db.column_view) ~wanted =
  let prog = fast.Smart_lang.Requirement.prog in
  scan scratch ~fast ~view;
  for k = 0 to scratch.nan_len - 1 do
    Smart_util.Heap.push scratch.ranked ~key:infinity scratch.nans.(k)
  done;
  let limit = cut_limit wanted in
  let selected = ref [] in
  let count = ref 0 in
  let take host =
    selected := host :: !selected;
    incr count
  in
  let rec drain heap =
    if !count < limit then
      match Smart_util.Heap.pop heap with
      | Some (_, host) ->
        take host;
        drain heap
      | None -> ()
  in
  drain scratch.pref;
  if prog.B.has_order_by then drain scratch.ranked
  else begin
    let k = ref 0 in
    while !count < limit && !k < scratch.plain_len do
      take scratch.plain.(!k);
      incr k
    done
  end;
  List.rev !selected

(* ------------------------------------------------------------------ *)
(* Federation: scored selection and deterministic cross-shard merge     *)
(* ------------------------------------------------------------------ *)

(* A shard wizard's answer to a root subquery: the same scan, but each
   candidate keeps the ordering information the root needs to merge
   per-shard lists into exactly the flat ranking — preference rank for
   preferred hosts, the order_by key for the rest.  The drain order is
   the shard-local selection order, i.e. the restriction of the global
   candidate order to this shard, which is what makes merging per-shard
   prefixes exact (see [merge_candidates]).

   Key recovery: the ranked heap stores the negated normalized key, so
   popping gives it back with [-0.0] already collapsed; NaN keys live in
   the scan-order stash and are emitted last with an honest NaN key so
   the root can order them after every real key, as [Float.compare]
   does. *)
let select_scored scratch ~(fast : Smart_lang.Requirement.fast)
    ~(view : Status_db.column_view) ~wanted =
  let prog = fast.Smart_lang.Requirement.prog in
  scan scratch ~fast ~view;
  let limit = cut_limit wanted in
  let out = ref [] in
  let count = ref 0 in
  let take c =
    out := c :: !out;
    incr count
  in
  let rec drain_pref () =
    if !count < limit then
      match Smart_util.Heap.pop scratch.pref with
      | Some (rank, host) ->
        take
          {
            Smart_proto.Fed_msg.host;
            rank = int_of_float rank;
            key = neg_infinity;
          };
        drain_pref ()
      | None -> ()
  in
  drain_pref ();
  if prog.B.has_order_by then begin
    let rec drain_ranked () =
      if !count < limit then
        match Smart_util.Heap.pop scratch.ranked with
        | Some (negkey, host) ->
          take { Smart_proto.Fed_msg.host; rank = -1; key = -.negkey };
          drain_ranked ()
        | None -> ()
    in
    drain_ranked ();
    let k = ref 0 in
    while !count < limit && !k < scratch.nan_len do
      take { Smart_proto.Fed_msg.host = scratch.nans.(!k); rank = -1;
             key = Float.nan };
      incr k
    done
  end
  else begin
    let k = ref 0 in
    while !count < limit && !k < scratch.plain_len do
      take { Smart_proto.Fed_msg.host = scratch.plain.(!k); rank = -1;
             key = neg_infinity };
      incr k
    done
  end;
  List.rev !out

(* Total order over candidates, identical to the flat wizard's ranking:
   preferred hosts first by preference rank, then the rest by order_by
   key descending with NaN after every real key ([Float.compare] orders
   NaN below -infinity; the [+. 0.0] normalization collapses -0.0 onto
   0.0 exactly as the reference sort does).  The host name breaks every
   remaining tie — scan order is host order, since status databases
   scan sorted by host — which is what keeps a cross-shard merge
   byte-deterministic regardless of reply arrival order. *)
let compare_candidates (a : Smart_proto.Fed_msg.candidate)
    (b : Smart_proto.Fed_msg.candidate) =
  match (a.Smart_proto.Fed_msg.rank >= 0, b.Smart_proto.Fed_msg.rank >= 0) with
  | true, false -> -1
  | false, true -> 1
  | true, true ->
    let c = Int.compare a.Smart_proto.Fed_msg.rank b.Smart_proto.Fed_msg.rank in
    if c <> 0 then c
    else
      String.compare a.Smart_proto.Fed_msg.host b.Smart_proto.Fed_msg.host
  | false, false ->
    let c =
      Float.compare
        (b.Smart_proto.Fed_msg.key +. 0.0)
        (a.Smart_proto.Fed_msg.key +. 0.0)
    in
    if c <> 0 then c
    else
      String.compare a.Smart_proto.Fed_msg.host b.Smart_proto.Fed_msg.host

(* Merge per-shard candidate lists into the final reply: the best
   [wanted] hosts under the global candidate order.

   Exactness: each shard list is the [select_scored] prefix of that
   shard's eligible servers under the same total order, and the order is
   total, so every member of the global top-k is inside its own shard's
   top-k — merging the prefixes and cutting to k loses nothing.  With
   shards partitioning the server set this returns exactly what a flat
   wizard over the union database would have selected.

   Determinism: shard lists are processed in shard-name order and the
   sort's remaining ties fall to the host name, so the result does not
   depend on reply arrival order.  A host reported by several shards
   (possible only when shards overlap) keeps its best-ordered candidate. *)
let merge_candidates ~wanted shards =
  let shards =
    List.sort (fun (a, _) (b, _) -> String.compare a b) shards
  in
  let all = List.concat_map snd shards in
  let sorted = List.stable_sort compare_candidates all in
  let limit = cut_limit wanted in
  let seen = Hashtbl.create 16 in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | (c : Smart_proto.Fed_msg.candidate) :: rest ->
      if Hashtbl.mem seen c.Smart_proto.Fed_msg.host then take n rest
      else begin
        Hashtbl.replace seen c.Smart_proto.Fed_msg.host ();
        c.Smart_proto.Fed_msg.host :: take (n - 1) rest
      end
  in
  take limit sorted
