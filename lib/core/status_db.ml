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
     rebuilds it.  Every other write refreshes it in place: a system or
     security write dirties the rows it changed (a dirty row is
     rewritten whole: values, IP and security level), and a network
     write re-fills the network columns of every row. *)

type column_view = {
  cols : Smart_lang.Bytecode.columns;
  hosts : string array;  (* dense row -> host name, scan (sorted) order *)
  ips : string array;    (* dense row -> IP *)
}

(* What the last [columns] call did, for the wizard's rebuild counter
   and the bench's refresh accounting. *)
type refresh = Cached | Refreshed | Rebuilt

type t = {
  sys : (string, Smart_proto.Records.sys_record) Hashtbl.t;  (* by host *)
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
  (* --- columnar snapshot state --- *)
  mutable cview : column_view option;
  mutable cgen : int;  (* generation [cview] matches; -1 = never built *)
  crow : (string, int) Hashtbl.t;  (* host -> dense row of [cview] *)
  mutable cdirty : bool array;
      (* row -> system record or security level rewritten since *)
  mutable cmembership : bool;
      (* a system host joined or left: the next [columns] call must
         rebuild rather than refresh rows *)
  mutable cnet : bool;  (* network table written since [cgen] *)
  mutable clast : refresh;
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
    cview = None;
    cgen = -1;
    crow = Hashtbl.create 32;
    cdirty = [||];
    cmembership = true;
    cnet = false;
    clast = Rebuilt;
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
  match Hashtbl.find_opt t.crow host with
  | Some row -> if not t.cmembership then t.cdirty.(row) <- true
  | None -> t.cmembership <- true

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
  Hashtbl.replace t.sys host record;
  bump t

(* Batched write for the receiver's frame application: one snapshot of n
   records costs one generation, so readers memoizing on the generation
   rebuild once per frame, not once per record. *)
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
        Hashtbl.replace t.sys host r)
      records;
    bump t

let find_sys t ~host = Hashtbl.find_opt t.sys host

let sys_records t =
  match t.sys_cache with
  | Some records -> records
  | None ->
    let records =
      Hashtbl.fold (fun _ r acc -> r :: acc) t.sys []
      |> List.sort (fun a b ->
             String.compare a.Smart_proto.Records.report.Smart_proto.Report.host
               b.Smart_proto.Records.report.Smart_proto.Report.host)
    in
    t.sys_cache <- Some records;
    records

(* Drop servers whose probe has stopped reporting (§3.2.2): records older
   than [max_age] (3 probe intervals by default in the drivers).  The
   generation moves only when a record was actually removed, so an idle
   periodic sweep does not invalidate readers' memoized views. *)
let sweep_sys_expired t ~now ~max_age =
  let stale =
    Hashtbl.fold
      (fun host r acc ->
        if now -. r.Smart_proto.Records.updated_at > max_age then host :: acc
        else acc)
      t.sys []
    |> List.sort String.compare
  in
  List.iter (Hashtbl.remove t.sys) stale;
  if stale <> [] then begin
    t.cmembership <- true;
    bump t
  end;
  stale

let sweep_sys t ~now ~max_age = List.length (sweep_sys_expired t ~now ~max_age)

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

let update_net t (record : Smart_proto.Records.net_record) =
  let monitor = record.Smart_proto.Records.monitor in
  (match Hashtbl.find_opt t.net monitor with
  | Some old -> unindex_net t ~monitor old
  | None -> ());
  Hashtbl.replace t.net monitor record;
  index_net t ~monitor record;
  t.cnet <- true;
  bump t

let find_net t ~monitor = Hashtbl.find_opt t.net monitor

let net_records t =
  Hashtbl.fold (fun _ r acc -> r :: acc) t.net []
  |> List.sort (fun a b ->
         String.compare a.Smart_proto.Records.monitor b.Smart_proto.Records.monitor)

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

let security_level t ~host = Hashtbl.find_opt t.sec host

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

(* The 22 system-field readers in column order, resolved once: the
   column contents agree with the reference evaluator's binding by
   construction ([Report.reader] is [Report.variable] by name). *)
let sys_readers =
  Array.map
    (fun name ->
      match Smart_proto.Report.reader name with
      | Some f -> f
      | None -> assert false (* sys_fields ⊆ Report.variable's domain *))
    B.sys_fields

let fill_sys_row (cols : B.columns) ~row (report : Smart_proto.Report.t) =
  for field = 0 to Array.length sys_readers - 1 do
    Bigarray.Array2.set cols.B.sys field row (sys_readers.(field) report)
  done

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

let rebuild_columns t ~net_for =
  let records = sys_records t in
  let n = List.length records in
  let cols = B.create_columns n in
  let hosts = Array.make n "" and ips = Array.make n "" in
  Hashtbl.reset t.crow;
  List.iteri
    (fun row (r : Smart_proto.Records.sys_record) ->
      let report = r.Smart_proto.Records.report in
      let host = report.Smart_proto.Report.host in
      hosts.(row) <- host;
      ips.(row) <- report.Smart_proto.Report.ip;
      Hashtbl.replace t.crow host row;
      fill_sys_row cols ~row report;
      fill_net_row cols ~row (net_for host);
      fill_sec_row t cols ~row ~host)
    records;
  let view = { cols; hosts; ips } in
  t.cview <- Some view;
  t.clast <- Rebuilt;
  t.cdirty <- Array.make n false;
  t.cmembership <- false;
  t.cnet <- false;
  t.cgen <- t.generation;
  view

(* Same host set as [view]: rewrite the dirty rows (system values, IP
   and security level), and re-fill the network columns of every row if
   the network table was written.  A whole table, because one network
   record can feed many rows (the wizard's grouped lookup resolves every
   server of a remote group through the local monitor's entry for that
   group). *)
let refresh_columns t view ~net_for =
  for row = 0 to Array.length view.hosts - 1 do
    let host = view.hosts.(row) in
    if t.cdirty.(row) then begin
      t.cdirty.(row) <- false;
      (match Hashtbl.find_opt t.sys host with
      | Some (r : Smart_proto.Records.sys_record) ->
        let report = r.Smart_proto.Records.report in
        fill_sys_row view.cols ~row report;
        view.ips.(row) <- report.Smart_proto.Report.ip
      | None -> ());
      fill_sec_row t view.cols ~row ~host
    end;
    if t.cnet then fill_net_row view.cols ~row (net_for host)
  done;
  t.clast <- Refreshed;
  t.cnet <- false;
  t.cgen <- t.generation;
  view

(* The columnar snapshot at the current generation.  Three speeds:
   unchanged data returns the memoized view untouched; a write that
   kept the system host set refreshes the view in place; a host joining
   or leaving rebuilds it from scratch.  [net_for] resolves the network
   metrics toward a host (the wizard's group-aware lookup); it is
   consulted on rebuilds and after network writes, so its answers must
   depend only on the host and this database's network table. *)
let columns t ~net_for =
  match t.cview with
  | Some view when t.cgen = t.generation ->
    t.clast <- Cached;
    view
  | Some view when not t.cmembership -> refresh_columns t view ~net_for
  | Some _ | None -> rebuild_columns t ~net_for

(* One host's row, built fresh from the same fill functions a rebuild
   uses, so it equals that host's row of [columns]; the memo is left
   alone. *)
let row_view t ~net_for ~host =
  match Hashtbl.find_opt t.sys host with
  | None -> None
  | Some (r : Smart_proto.Records.sys_record) ->
    let report = r.Smart_proto.Records.report in
    let cols = B.create_columns 1 in
    fill_sys_row cols ~row:0 report;
    fill_net_row cols ~row:0 (net_for host);
    fill_sec_row t cols ~row:0 ~host;
    Some { cols; hosts = [| host |]; ips = [| report.Smart_proto.Report.ip |] }

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

let last_refresh t = t.clast

let sys_count t = Hashtbl.length t.sys

let remove_sys t ~host =
  if Hashtbl.mem t.sys host then begin
    Hashtbl.remove t.sys host;
    t.cmembership <- true;
    bump t
  end
