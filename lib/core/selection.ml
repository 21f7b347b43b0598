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

   The scan is cut-aware: it keeps only what the reply can use.  Each
   eligible row goes into one of two bounded top-[limit] buffers, one
   for preferred hosts keyed by rank and one for the rest keyed by
   order_by, so a row costs no allocation and no buffer grows past the
   cut.  Without order_by and preferred hosts, scan order alone ranks
   the rest, and the scan stops at the [limit]-th eligible row.  A
   requirement in the statement-major sweep shape ([Bytecode.sweep_of]:
   compares, one order_by column, constant host lists) is evaluated
   column-at-a-time, and its constant host lists are checked against
   qualified rows only; every other requirement runs on the interpreter
   row by row.

   The test suites hold this to a list-based reference selection over
   the tree-walking evaluator (test/oracle). *)

module B = Smart_lang.Bytecode

(* ------------------------------------------------------------------ *)
(* Bounded top-k buffer                                                 *)
(* ------------------------------------------------------------------ *)

(* The best [cap] snapshot rows offered so far.  Rows rank by key
   descending, NaN after every real key, and ties go to the earlier row
   (rows are scan order), which replays the reference selection's
   stable sorts; [Float.compare] already ties -0.0 with 0.0 and orders
   NaN below every real key.  Keys live in a row-indexed float array
   that the caller fills before [offer], so no float crosses a function
   boundary boxed.  The rows form a binary heap with the worst at the
   root: a full buffer rejects a row with one comparison and admits one
   in O(log cap), and [pop] hands rows back worst first, so consing
   them builds a best-first list. *)
type top = {
  mutable keys : float array;  (* key of row r, indexed by row *)
  mutable heap : int array;    (* rows; heap.(0) ranks last *)
  mutable len : int;
  mutable cap : int;
}

let top () = { keys = [||]; heap = [||]; len = 0; cap = 0 }

(* Empty [t] for a scan of [n] rows that keeps at most [cap]. *)
let reset t ~n ~cap =
  if Array.length t.keys < n then t.keys <- Array.make (2 * n) 0.0;
  let cap = min cap n in
  if Array.length t.heap < cap then t.heap <- Array.make (2 * cap) 0;
  t.len <- 0;
  t.cap <- cap

(* Does row [a] rank before row [b]? *)
let before keys a b =
  let c = Float.compare keys.(a) keys.(b) in
  c > 0 || (c = 0 && a < b)

(* Put [r] at the root of the [t.len] heap rows and sift it down past
   every child that ranks after it. *)
let sift_down t r =
  let keys = t.keys and heap = t.heap and len = t.len in
  let i = ref 0 in
  let sifting = ref true in
  while !sifting do
    let l = (2 * !i) + 1 in
    if l >= len then sifting := false
    else begin
      let worse =
        if l + 1 < len && before keys heap.(l) heap.(l + 1) then l + 1 else l
      in
      if before keys r heap.(worse) then begin
        heap.(!i) <- heap.(worse);
        i := worse
      end
      else sifting := false
    end
  done;
  heap.(!i) <- r

(* Offer row [r], its key already in [t.keys]. *)
let offer t r =
  if t.len < t.cap then begin
    let keys = t.keys and heap = t.heap in
    let i = ref t.len in
    t.len <- t.len + 1;
    while !i > 0 && before keys heap.((!i - 1) / 2) r do
      heap.(!i) <- heap.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    heap.(!i) <- r
  end
  else if t.len > 0 && before t.keys r t.heap.(0) then sift_down t r

(* Remove and return the worst row. *)
let pop t =
  let worst = t.heap.(0) in
  t.len <- t.len - 1;
  if t.len > 0 then sift_down t t.heap.(t.len);
  worst

(* Reusable buffers for [select_columns]: the preferred hosts' buffer
   (keyed by negated preference rank), the buffer of every other
   eligible row (keyed by order_by key, or all [neg_infinity] so scan
   order alone ranks them; its key array doubles as the sweep plan's
   order output) and the sweep plan's verdict bytes.  One scratch per
   wizard; a scan allocates only when the snapshot outgrows them. *)
type scratch = {
  pref : top;
  rest : top;
  mutable qbuf : Bytes.t;
}

let scratch () = { pref = top (); rest = top (); qbuf = Bytes.empty }

(* ------------------------------------------------------------------ *)
(* Eligibility                                                          *)
(* ------------------------------------------------------------------ *)

let ineligible = -2

let unranked = -1

(* A qualified row's standing under the host lists: [ineligible] when a
   user_denied_hostN names it, else its preference rank (the position
   of the first user_preferred_hostN naming it among the preferred
   entries) or [unranked].  The lists are the address-valued entries of
   a uparam log in assignment order — the interpreter's per-row log or a
   sweep plan's constant one; an entry matches by host name or IP. *)
let standing pool ~slots ~tags ~len ~host ~ip =
  let denied = ref false in
  let rank = ref unranked in
  let pcount = ref 0 in
  for k = 0 to len - 1 do
    let tag = tags.(k) in
    if tag >= 0 then begin
      let entry = pool.(tag) in
      if slots.(k) < B.preferred_slots then begin
        if !rank < 0 && (String.equal entry host || String.equal entry ip)
        then rank := !pcount;
        incr pcount
      end
      else if
        (not !denied) && (String.equal entry host || String.equal entry ip)
      then denied := true
    end
  done;
  if !denied then ineligible else !rank

(* Row [row]'s standing under the compiled requirement, by the
   interpreter: [ineligible] when it fails the requirement, else its
   standing under the uparam log the run left.  Leaves the row's
   order_by key in the state. *)
let eligibility ~(fast : Smart_lang.Requirement.fast)
    ~(view : Status_db.column_view) ~row =
  let prog = fast.Smart_lang.Requirement.prog in
  let st = fast.Smart_lang.Requirement.state in
  B.run ~stop_unqualified:true prog st view.Status_db.cols ~server:row;
  if not (B.qualified prog st) then ineligible
  else
    standing prog.B.pool ~slots:st.B.ulog_slot ~tags:st.B.ulog_tag
      ~len:st.B.ulog_len ~host:view.Status_db.hosts.(row)
      ~ip:view.Status_db.ips.(row)

let qualifies ~fast ~view ~row = eligibility ~fast ~view ~row <> ineligible

(* ------------------------------------------------------------------ *)
(* The cut-aware scan                                                   *)
(* ------------------------------------------------------------------ *)

(* Rows an early-stopping sweep evaluates at a time: few enough that
   stopping at the cut wastes little, enough that each block still runs
   the plan's per-column loops. *)
let sweep_block = 64

(* File eligible row [r] of standing [rank]; an unranked row's key must
   already be in [scratch.rest.keys]. *)
let place scratch rank r =
  if rank >= 0 then begin
    scratch.pref.keys.(r) <- -.float_of_int rank;
    offer scratch.pref r
  end
  else offer scratch.rest r

(* The shared scan: evaluate the compiled requirement over the snapshot
   and file every eligible row into the two top-[limit] buffers.  When
   scan order alone ranks the answer — no order_by and no preferred
   host, or nothing wanted — it is the first [limit] eligible rows, so
   the scan stops there.  The sweep plan then runs block by block. *)
let scan scratch ~(fast : Smart_lang.Requirement.fast)
    ~(view : Status_db.column_view) ~limit =
  let prog = fast.Smart_lang.Requirement.prog in
  let cols = view.Status_db.cols in
  let n = cols.B.n in
  let rest = scratch.rest in
  reset scratch.pref ~n ~cap:limit;
  reset rest ~n ~cap:limit;
  let ordered = prog.B.has_order_by in
  let early =
    limit = 0 || ((not ordered) && not fast.Smart_lang.Requirement.prefers)
  in
  match fast.Smart_lang.Requirement.sweep with
  | Some sw ->
    if Bytes.length scratch.qbuf < n then
      scratch.qbuf <- Bytes.make (2 * n) '\000';
    let qbuf = scratch.qbuf in
    let log = B.sweep_hosts sw in
    let nlog = Array.length log.B.slots in
    let block = if early then sweep_block else n in
    let lo = ref 0 in
    while !lo < n && not (early && rest.len >= limit) do
      let hi = min n (!lo + block) in
      B.run_sweep sw cols ~lo:!lo ~hi ~qualified:qbuf ~order:rest.keys;
      let r = ref !lo in
      while !r < hi && not (early && rest.len >= limit) do
        if Bytes.get qbuf !r <> '\000' then begin
          let rank =
            if nlog = 0 then unranked
            else
              standing prog.B.pool ~slots:log.B.slots ~tags:log.B.tags
                ~len:nlog ~host:view.Status_db.hosts.(!r)
                ~ip:view.Status_db.ips.(!r)
          in
          if rank <> ineligible then begin
            if not ordered then rest.keys.(!r) <- neg_infinity;
            place scratch rank !r
          end
        end;
        incr r
      done;
      lo := hi
    done
  | None ->
    let st = fast.Smart_lang.Requirement.state in
    let r = ref 0 in
    while !r < n && not (early && rest.len >= limit) do
      let rank = eligibility ~fast ~view ~row:!r in
      if rank <> ineligible then begin
        rest.keys.(!r) <-
          (if st.B.order_found then st.B.order_val.(0) else neg_infinity);
        place scratch rank !r
      end;
      incr r
    done

(* The reference selection's [take] only stops on exactly 0, so a
   negative [wanted] means "no cut" there; the scan replays that. *)
let cut_limit wanted =
  let limit = min wanted Smart_proto.Ports.max_reply_servers in
  if limit < 0 then max_int else limit

(* Drop the rest's worst rows until the two buffers hold [limit] rows
   between them: preferred hosts come first. *)
let trim scratch ~limit =
  while scratch.rest.len > limit - scratch.pref.len do
    ignore (pop scratch.rest)
  done

(* The flat wizard's answer: one cut-aware pass over the columnar
   snapshot (the test suite pins it to the reference selection with a
   differential property).  Popping worst first and consing yields
   each buffer best first, the rest's rows consed before the
   preferred hosts'. *)
let select_columns scratch ~(fast : Smart_lang.Requirement.fast)
    ~(view : Status_db.column_view) ~wanted =
  let limit = cut_limit wanted in
  scan scratch ~fast ~view ~limit;
  trim scratch ~limit;
  let hosts = view.Status_db.hosts in
  let out = ref [] in
  while scratch.rest.len > 0 do
    out := hosts.(pop scratch.rest) :: !out
  done;
  while scratch.pref.len > 0 do
    out := hosts.(pop scratch.pref) :: !out
  done;
  !out

(* ------------------------------------------------------------------ *)
(* Federation: scored selection and deterministic cross-shard merge     *)
(* ------------------------------------------------------------------ *)

(* A shard wizard's answer to a root subquery: the same scan, but each
   candidate keeps the ordering information the root needs to merge
   per-shard lists into exactly the flat ranking — preference rank for
   preferred hosts, the order_by key for the rest.  The list order is
   the shard-local selection order, i.e. the restriction of the global
   candidate order to this shard, which is what makes merging per-shard
   prefixes exact (see [merge_candidates]).

   Keys go out normalized by [+. 0.0], so -0.0 travels as 0.0, and a NaN
   key as [Float.nan] whatever its payload, so the root orders it after
   every real key, as [Float.compare] does. *)
let select_scored scratch ~(fast : Smart_lang.Requirement.fast)
    ~(view : Status_db.column_view) ~wanted =
  let limit = cut_limit wanted in
  scan scratch ~fast ~view ~limit;
  trim scratch ~limit;
  let hosts = view.Status_db.hosts in
  let out = ref [] in
  while scratch.rest.len > 0 do
    let r = pop scratch.rest in
    let key = scratch.rest.keys.(r) in
    out :=
      {
        Smart_proto.Fed_msg.host = hosts.(r);
        rank = -1;
        key = (if Float.is_nan key then Float.nan else key +. 0.0);
      }
      :: !out
  done;
  while scratch.pref.len > 0 do
    let r = pop scratch.pref in
    out :=
      {
        Smart_proto.Fed_msg.host = hosts.(r);
        rank = int_of_float (-.scratch.pref.keys.(r));
        key = neg_infinity;
      }
      :: !out
  done;
  !out

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
