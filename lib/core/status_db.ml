(* The status databases of Fig 3.10 — the in-memory equivalent of the
   System V shared memory segments.  One instance lives on the monitor
   machine (written by the three monitors, read by the transmitter) and
   one on the wizard machine (written by the receiver, read by the
   wizard).

   The store is versioned and indexed so readers never rescan:

   - a monotonic [generation] counter is bumped by every mutating write
     (and by sweeps only when they actually removed something), letting
     readers memoize derived views and invalidate them precisely;
   - a peer -> (monitor, entry) secondary index is maintained
     incrementally by [update_net], making [net_entry_for] an O(1)
     lookup instead of a scan over every monitor's entry list;
   - a pushed system record stays in its frame payload
     ([update_sys_payload]): row fills read its values in place, and
     only [find_sys], [sys_records] and the sweep decode it;
   - the sorted [sys_records] list is computed at most once per
     generation; every write drops it, so the memo never holds records
     a later write superseded;
   - [replace_sec] diffs the incoming security table against the
     stored one: an identical table is a no-op (no generation bump), a
     changed one touches only the hosts whose level changed, appeared or
     vanished, and [sec_changes] counts the writes that changed it, so
     the receiver can skip a security frame it has already applied;
   - a columnar snapshot ([columns]) of the whole status plane — the
     structure-of-arrays the wizard's bytecode interpreter scans — has
     one row per system host, so only a host joining or leaving
     rebuilds it.  Every other write refreshes it in place and marks
     only the rows it feeds: a system or security write the rows it
     changed (a dirty row is rewritten whole: values, IP and security
     level), a network write the rows whose network key ([net_key]) a
     peer of the monitor's old or new record matches. *)

type column_view = {
  cols : Smart_lang.Bytecode.columns;
  hosts : string array;  (* dense row -> host name, scan (sorted) order *)
  ips : string array;    (* dense row -> IP *)
}

(* The work a [columns] call did, told to the wizard's snapshot
   counters. *)
type refresh = Refreshed of int | Rebuilt

type net_key =
  | Peer of string
  | Peer_of of { monitor : string; peer : string }
  | Fixed of Smart_proto.Records.net_entry

(* A stored system record: decoded (a monitor-side write), or left in
   the frame payload a push delivered it in. *)
type sys_entry =
  | Decoded of Smart_proto.Records.sys_record
  | Wire of Smart_proto.Records.sys_wire

type t = {
  sys : (string, sys_entry) Hashtbl.t;                       (* by host *)
  net : (string, Smart_proto.Records.net_record) Hashtbl.t;  (* by monitor *)
  sec : (string, int) Hashtbl.t;                             (* host -> level *)
  mutable sec_changes : int;  (* [replace_sec] calls that changed the table *)
  peer_index :
    (string, (string * Smart_proto.Records.net_entry) list) Hashtbl.t;
      (* target peer -> entries about it, tagged by reporting monitor *)
  mutable generation : int;
  mutable sys_cache : Smart_proto.Records.sys_record list option;
      (* sorted records of the last [sys_records] call; every write
         clears it *)
  mutable last_trace : Smart_util.Tracelog.ctx;
      (* context of the ingest that last wrote the system table; the
         transmitter parents its push spans here so the monitor-side
         trace stays causally connected to the frames it sends *)
  values : float array;  (* one record's numeric fields, for a row fill *)
  mutable net_key : string -> net_key;
  (* --- columnar snapshot state --- *)
  mutable cview : column_view option;
  mutable cgen : int;  (* generation [cview] matches; -1 = never built *)
  crow : (string, int) Hashtbl.t;  (* host -> dense row of [cview] *)
  mutable ckey : net_key array;  (* row -> its host's [net_key] *)
  cfeeds : (string, int list) Hashtbl.t;
      (* peer -> rows whose key names it, ascending *)
  mutable cdirty : bool array;
      (* row -> system record or security level rewritten since *)
  mutable cnet_dirty : bool array;
      (* row -> a network write touched the entry its key reads *)
  mutable cmembership : bool;
      (* a system host joined or left, or [net_key] was replaced: the
         next [columns] call must rebuild rather than refresh rows *)
  mutable on_refresh : refresh -> unit;  (* told each refresh and rebuild *)
}

let create () =
  {
    sys = Hashtbl.create 32;
    net = Hashtbl.create 8;
    sec = Hashtbl.create 32;
    sec_changes = 0;
    peer_index = Hashtbl.create 64;
    generation = 0;
    sys_cache = None;
    last_trace = Smart_util.Tracelog.root;
    values = Array.make Smart_proto.Report.field_count 0.0;
    net_key = (fun host -> Peer host);
    cview = None;
    cgen = -1;
    crow = Hashtbl.create 32;
    ckey = [||];
    cfeeds = Hashtbl.create 32;
    cdirty = [||];
    cnet_dirty = [||];
    cmembership = true;
    on_refresh = ignore;
  }

let set_last_trace t ctx = t.last_trace <- ctx

let last_trace t = t.last_trace

let generation t = t.generation

let bump t =
  t.generation <- t.generation + 1;
  t.sys_cache <- None

(* Columnar-snapshot bookkeeping: while the host set matches the
   snapshot's rows, [crow] holds exactly the hosts of [sys], so a host
   it does not know is joining and forces a rebuild; a known host's
   update dirties its row.  A security write never changes the host
   set: it dirties the row of a host that has one, and nothing while a
   rebuild is due. *)
let note_sys_write t ~host =
  match Hashtbl.find t.crow host with
  | row -> if not t.cmembership then t.cdirty.(row) <- true
  | exception Not_found -> t.cmembership <- true

let note_sec_write t ~host =
  if not t.cmembership then
    match Hashtbl.find_opt t.crow host with
    | Some row -> t.cdirty.(row) <- true
    | None -> ()

let update_sys t (record : Smart_proto.Records.sys_record) =
  let host =
    record.Smart_proto.Records.report.Smart_proto.Report.host
  in
  note_sys_write t ~host;
  Hashtbl.replace t.sys host (Decoded record);
  bump t

(* Batched write: one snapshot of n records costs one generation, so
   readers memoizing on the generation rebuild once per snapshot, not
   once per record. *)
let update_sys_many t records =
  match records with
  | [] -> ()
  | records ->
    List.iter
      (fun (r : Smart_proto.Records.sys_record) ->
        let host =
          r.Smart_proto.Records.report.Smart_proto.Report.host
        in
        note_sys_write t ~host;
        Hashtbl.replace t.sys host (Decoded r))
      records;
    bump t

(* The receiver's per-frame write: each record stays in [data], and the
   receiver supplies the host names it read (or matched in place
   against the source's previous snapshot, reusing those strings). *)
let update_sys_payload t order data ~hosts =
  if Array.length hosts > 0 then begin
    for i = 0 to Array.length hosts - 1 do
      let host = hosts.(i) in
      note_sys_write t ~host;
      Hashtbl.replace t.sys host
        (Wire
           (Smart_proto.Records.sys_wire order data
              ~pos:(i * Smart_proto.Records.sys_record_size)))
    done;
    bump t
  end

let decode = function
  | Decoded r -> r
  | Wire w -> Smart_proto.Records.decode_wire w

let find_sys t ~host =
  match Hashtbl.find_opt t.sys host with
  | Some entry -> Some (decode entry)
  | None -> None

let sys_records t =
  match t.sys_cache with
  | Some records -> records
  | None ->
    let records =
      Hashtbl.fold (fun host entry acc -> (host, entry) :: acc) t.sys []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      |> List.map (fun (_, entry) -> decode entry)
    in
    t.sys_cache <- Some records;
    records

let updated_at = function
  | Decoded r -> r.Smart_proto.Records.updated_at
  | Wire w -> Smart_proto.Records.wire_updated_at w

(* Drop servers whose probe has stopped reporting (§3.2.2): records older
   than [max_age] (3 probe intervals by default in the drivers).  The
   generation moves only when a record was actually removed, so an idle
   periodic sweep does not invalidate readers' memoized views. *)
let sweep_sys_expired t ~now ~max_age =
  let stale =
    Hashtbl.fold
      (fun host entry acc ->
        if now -. updated_at entry > max_age then host :: acc else acc)
      t.sys []
    |> List.sort String.compare
  in
  List.iter (Hashtbl.remove t.sys) stale;
  if stale <> [] then begin
    t.cmembership <- true;
    bump t
  end;
  stale


(* Remove every peer-index contribution of [monitor]'s previous record. *)
let unindex_net t ~monitor (record : Smart_proto.Records.net_record) =
  List.iter
    (fun (e : Smart_proto.Records.net_entry) ->
      match Hashtbl.find_opt t.peer_index e.Smart_proto.Records.peer with
      | None -> ()
      | Some entries ->
        (match
           List.filter (fun (m, _) -> not (String.equal m monitor)) entries
         with
        | [] -> Hashtbl.remove t.peer_index e.Smart_proto.Records.peer
        | rest -> Hashtbl.replace t.peer_index e.Smart_proto.Records.peer rest))
    record.Smart_proto.Records.entries

let index_net t ~monitor (record : Smart_proto.Records.net_record) =
  List.iter
    (fun (e : Smart_proto.Records.net_entry) ->
      let previous =
        Option.value ~default:[]
          (Hashtbl.find_opt t.peer_index e.Smart_proto.Records.peer)
      in
      Hashtbl.replace t.peer_index e.Smart_proto.Records.peer
        ((monitor, e) :: previous))
    record.Smart_proto.Records.entries

(* Network metrics toward a given target host.  When several monitors
   report the same peer the winner is deterministic regardless of
   insertion or hashtable order: freshest [measured_at] first, lowest
   monitor name on ties. *)
let net_entry_for t ~target =
  match Hashtbl.find_opt t.peer_index target with
  | None -> None
  | Some entries ->
    let better (m1, (e1 : Smart_proto.Records.net_entry)) (m2, e2) =
      if e1.Smart_proto.Records.measured_at > e2.Smart_proto.Records.measured_at
      then (m1, e1)
      else if
        e1.Smart_proto.Records.measured_at < e2.Smart_proto.Records.measured_at
      then (m2, e2)
      else if String.compare m1 m2 <= 0 then (m1, e1)
      else (m2, e2)
    in
    (match entries with
    | [] -> None
    | first :: rest -> Some (snd (List.fold_left better first rest)))

(* The entry a row with this key reads.  [note_net_write] below marks
   the row whenever a network write can change that answer: a [Peer]
   key reads every monitor's entries toward its peer, a [Peer_of] key
   only its own monitor's, a [Fixed] key none. *)
let key_entry t = function
  | Peer target -> net_entry_for t ~target
  | Peer_of { monitor; peer } ->
    (match Hashtbl.find_opt t.net monitor with
    | None -> None
    | Some record ->
      List.find_opt
        (fun (e : Smart_proto.Records.net_entry) ->
          String.equal e.Smart_proto.Records.peer peer)
        record.Smart_proto.Records.entries)
  | Fixed entry -> Some entry

(* Mark the rows whose network key reads an entry of [record]: keys
   naming one of its peers, from any monitor or from this one.  Plain
   recursion rather than [List.iter] closures, so marking a record's
   rows allocates nothing. *)
let rec mark_rows t ~monitor = function
  | [] -> ()
  | row :: rows ->
    (match t.ckey.(row) with
    | Peer _ -> t.cnet_dirty.(row) <- true
    | Peer_of { monitor = m; _ } ->
      if String.equal m monitor then t.cnet_dirty.(row) <- true
    | Fixed _ -> ());
    mark_rows t ~monitor rows

let rec mark_entries t ~monitor = function
  | [] -> ()
  | (e : Smart_proto.Records.net_entry) :: entries ->
    (match Hashtbl.find t.cfeeds e.Smart_proto.Records.peer with
    | rows -> mark_rows t ~monitor rows
    | exception Not_found -> ());
    mark_entries t ~monitor entries

let note_net_write t ~monitor (record : Smart_proto.Records.net_record) =
  if not t.cmembership then
    mark_entries t ~monitor record.Smart_proto.Records.entries

let update_net t (record : Smart_proto.Records.net_record) =
  let monitor = record.Smart_proto.Records.monitor in
  (match Hashtbl.find_opt t.net monitor with
  | Some old ->
    note_net_write t ~monitor old;
    unindex_net t ~monitor old
  | None -> ());
  Hashtbl.replace t.net monitor record;
  index_net t ~monitor record;
  note_net_write t ~monitor record;
  bump t

let find_net t ~monitor = Hashtbl.find_opt t.net monitor

(* Store the incoming table as a diff against the stored one, in place.
   The incoming entries are indexed first, so a host's level is that of
   its last entry; then each host whose level changed or appeared is
   written, and the stored hosts the table no longer names are dropped.
   Only those hosts dirty their rows, and only a table that changed
   moves the generation. *)
let replace_sec t (record : Smart_proto.Records.sec_record) =
  let entries = record.Smart_proto.Records.entries in
  let incoming = Hashtbl.create (max 32 (List.length entries)) in
  List.iter
    (fun { Smart_proto.Records.host; level } ->
      Hashtbl.replace incoming host level)
    entries;
  let changed = ref false in
  let touch host =
    changed := true;
    note_sec_write t ~host
  in
  List.iter
    (fun { Smart_proto.Records.host; _ } ->
      let level = Hashtbl.find incoming host in
      match Hashtbl.find_opt t.sec host with
      | Some stored when stored = level -> ()
      | Some _ | None ->
        Hashtbl.replace t.sec host level;
        touch host)
    entries;
  if Hashtbl.length t.sec > Hashtbl.length incoming then
    Hashtbl.filter_map_inplace
      (fun host level ->
        if Hashtbl.mem incoming host then Some level
        else begin
          touch host;
          None
        end)
      t.sec;
  if !changed then begin
    t.sec_changes <- t.sec_changes + 1;
    bump t
  end

let sec_changes t = t.sec_changes

let sec_record t =
  {
    Smart_proto.Records.entries =
      Hashtbl.fold
        (fun host level acc ->
          { Smart_proto.Records.host; level } :: acc)
        t.sec []
      |> List.sort (fun a b ->
             String.compare a.Smart_proto.Records.host b.Smart_proto.Records.host);
  }

(* ------------------------------------------------------------------ *)
(* Columnar snapshot                                                    *)
(* ------------------------------------------------------------------ *)

module B = Smart_lang.Bytecode

(* What each of the 22 system columns reads, resolved once from the
   column names ([Report.source]). *)
let column_sources =
  Array.map
    (fun name ->
      match Smart_proto.Report.source name with
      | Some source -> source
      | None -> assert false (* sys_fields ⊆ Report.source's domain *))
    B.sys_fields

(* The record's numeric fields go through [t.values], read in place
   from the payload for a pushed record, so a fill allocates nothing. *)
let fill_sys_row t (cols : B.columns) ~row entry =
  let values = t.values in
  (match entry with
  | Decoded r ->
    let report = r.Smart_proto.Records.report in
    for k = 0 to Array.length values - 1 do
      values.(k) <- Smart_proto.Report.field report k
    done
  | Wire w -> Smart_proto.Records.wire_values w values);
  for column = 0 to Array.length column_sources - 1 do
    Bigarray.Array2.set cols.B.sys column row
      (match column_sources.(column) with
      | Smart_proto.Report.Field k -> values.(k)
      | Smart_proto.Report.Sum (i, j) -> values.(i) +. values.(j))
  done

let entry_ip = function
  | Decoded r -> r.Smart_proto.Records.report.Smart_proto.Report.ip
  | Wire w -> Smart_proto.Records.wire_ip w

(* A pushed record's IP is compared in place: only a changed one is
   read out. *)
let refresh_ip view ~row = function
  | Decoded r ->
    view.ips.(row) <- r.Smart_proto.Records.report.Smart_proto.Report.ip
  | Wire w ->
    if not (Smart_proto.Records.wire_ip_is w view.ips.(row)) then
      view.ips.(row) <- Smart_proto.Records.wire_ip w

let fill_net_row (cols : B.columns) ~row entry =
  match entry with
  | Some (e : Smart_proto.Records.net_entry) ->
    Bigarray.Array1.set cols.B.net_delay row
      (Smart_util.Units.s_to_ms e.Smart_proto.Records.delay);
    Bigarray.Array1.set cols.B.net_bw row
      (Smart_util.Units.bytes_per_sec_to_mbps e.Smart_proto.Records.bandwidth);
    Bigarray.Array1.set cols.B.has_net row 1
  | None ->
    Bigarray.Array1.set cols.B.net_delay row 0.0;
    Bigarray.Array1.set cols.B.net_bw row 0.0;
    Bigarray.Array1.set cols.B.has_net row 0

(* Looked up with [Hashtbl.find], so filling a row allocates no option. *)
let fill_sec_row t (cols : B.columns) ~row ~host =
  match Hashtbl.find t.sec host with
  | level ->
    Bigarray.Array1.set cols.B.sec_level row (float_of_int level);
    Bigarray.Array1.set cols.B.has_sec row 1
  | exception Not_found ->
    Bigarray.Array1.set cols.B.sec_level row 0.0;
    Bigarray.Array1.set cols.B.has_sec row 0

let set_net_key t key =
  t.net_key <- key;
  t.cmembership <- true

let set_refresh_hook t f = t.on_refresh <- f

(* Each row's network key, and the key-to-rows index a network write
   marks through; rows are indexed in descending order so each list
   comes out ascending. *)
let derive_keys t view =
  t.ckey <- Array.map t.net_key view.hosts;
  Hashtbl.reset t.cfeeds;
  for row = Array.length t.ckey - 1 downto 0 do
    match t.ckey.(row) with
    | Peer peer | Peer_of { peer; _ } ->
      let rows = try Hashtbl.find t.cfeeds peer with Not_found -> [] in
      Hashtbl.replace t.cfeeds peer (row :: rows)
    | Fixed _ -> ()
  done

let rebuild_columns t ~net_for =
  let hosts =
    Array.of_list
      (List.sort String.compare
         (Hashtbl.fold (fun host _ acc -> host :: acc) t.sys []))
  in
  let n = Array.length hosts in
  let cols = B.create_columns n in
  let ips = Array.make n "" in
  Hashtbl.reset t.crow;
  Array.iteri
    (fun row host ->
      let entry = Hashtbl.find t.sys host in
      ips.(row) <- entry_ip entry;
      Hashtbl.replace t.crow host row;
      fill_sys_row t cols ~row entry;
      fill_net_row cols ~row (net_for host);
      fill_sec_row t cols ~row ~host)
    hosts;
  let view = { cols; hosts; ips } in
  derive_keys t view;
  t.cview <- Some view;
  t.on_refresh Rebuilt;
  t.cdirty <- Array.make n false;
  t.cnet_dirty <- Array.make n false;
  t.cmembership <- false;
  t.cgen <- t.generation;
  view

(* Same host set as [view]: rewrite the rows a write marked, in row
   order.  A row marked by a system or security write is rewritten
   whole (system values, IP, security level); one marked by a network
   write gets its network columns re-filled. *)
let refresh_columns t view ~net_for =
  let rewritten = ref 0 in
  for row = 0 to Array.length view.hosts - 1 do
    let sys = t.cdirty.(row) and net = t.cnet_dirty.(row) in
    if sys || net then begin
      incr rewritten;
      let host = view.hosts.(row) in
      if sys then begin
        t.cdirty.(row) <- false;
        (match Hashtbl.find t.sys host with
        | entry ->
          fill_sys_row t view.cols ~row entry;
          refresh_ip view ~row entry
        | exception Not_found -> ());
        fill_sec_row t view.cols ~row ~host
      end;
      if net then begin
        t.cnet_dirty.(row) <- false;
        fill_net_row view.cols ~row (net_for host)
      end
    end
  done;
  t.on_refresh (Refreshed !rewritten);
  t.cgen <- t.generation;
  view

(* The columnar snapshot at the current generation.  Three speeds:
   unchanged data returns the memoized view untouched; a write that
   kept the system host set refreshes the view in place; a host joining
   or leaving rebuilds it from scratch.  [net_for] resolves the network
   metrics toward a host (the wizard's group-aware lookup); it is
   consulted on rebuilds and for the rows a network write marked, so
   its answers must depend only on the network entry the host's
   [net_key] names. *)
let columns t ~net_for =
  match t.cview with
  | Some view when t.cgen = t.generation -> view
  | Some view when not t.cmembership -> refresh_columns t view ~net_for
  | Some _ | None -> rebuild_columns t ~net_for

(* One host's row, built fresh from the same fill functions a rebuild
   uses, so it equals that host's row of [columns]; the memo is left
   alone. *)
let row_view t ~net_for ~host =
  match Hashtbl.find_opt t.sys host with
  | None -> None
  | Some entry ->
    let cols = B.create_columns 1 in
    fill_sys_row t cols ~row:0 entry;
    fill_net_row cols ~row:0 (net_for host);
    fill_sec_row t cols ~row:0 ~host;
    Some { cols; hosts = [| host |]; ips = [| entry_ip entry |] }

let columns_fresh t = t.cgen = t.generation && t.cview <> None

(* Shard digest for the federation uplink: column ranges folded straight
   off the columnar snapshot with imperative lo/hi/count loops (a digest
   per transmit interval must not allocate 22n stat records).  System
   columns always carry a value for present rows; net/sec are gated on
   their presence flags, matching what [run]/[run_sweep] can read. *)
let summary t ~shard ~net_for =
  let view = columns t ~net_for in
  let cols = view.cols in
  let n = cols.B.n in
  let nsys = B.sys_field_count in
  let sys =
    Array.init nsys (fun f ->
        if n = 0 then Smart_proto.Digest.empty_stat
        else begin
          let lo = ref infinity and hi = ref neg_infinity in
          for row = 0 to n - 1 do
            let v = Bigarray.Array2.get cols.B.sys f row in
            if v < !lo then lo := v;
            if v > !hi then hi := v
          done;
          { Smart_proto.Digest.present = n; lo = !lo; hi = !hi }
        end)
  in
  let gated flags column =
    let present = ref 0 and lo = ref infinity and hi = ref neg_infinity in
    for row = 0 to n - 1 do
      if Bigarray.Array1.get flags row <> 0 then begin
        incr present;
        let v = Bigarray.Array1.get column row in
        if v < !lo then lo := v;
        if v > !hi then hi := v
      end
    done;
    if !present = 0 then Smart_proto.Digest.empty_stat
    else { Smart_proto.Digest.present = !present; lo = !lo; hi = !hi }
  in
  {
    Smart_proto.Digest.shard;
    generation = t.generation;
    servers = n;
    sys;
    net_delay = gated cols.B.has_net cols.B.net_delay;
    net_bw = gated cols.B.has_net cols.B.net_bw;
    sec_level = gated cols.B.has_sec cols.B.sec_level;
  }

let sys_count t = Hashtbl.length t.sys

let remove_sys t ~host =
  if Hashtbl.mem t.sys host then begin
    Hashtbl.remove t.sys host;
    t.cmembership <- true;
    bump t
  end
