(* The reference selection algorithm (§3.6.1, Fig 1.4), written for
   clarity over speed:

   1. every server view is evaluated against the requirement, with the
      server-side variables bound from its system record, the monitor_*
      variables from the network metrics toward it, and
      host_security_level from the security database;
   2. servers named by user_denied_hostN (by name or IP) are excluded
      outright — the Fig 1.4 blacklist;
   3. qualified servers named by user_preferred_hostN come first, in
      preference order; the remaining qualified servers follow in scan
      order — unless the requirement assigns the special temp variable
      [order_by], in which case they are ranked by that expression's
      per-server value, descending (Ch. 6: `order_by = host_memory_free`
      expresses "the servers with the largest memory");
   4. the list is cut to min(wanted, max_reply_servers). *)

open Smart_lang

type server_view = {
  record : Smart_proto.Records.sys_record;
  net : Smart_proto.Records.net_entry option;
  security_level : int option;
}

type verdict = {
  host : string;
  qualified : bool;
  denied : bool;
  preferred_rank : int option;  (* position in the preferred list *)
  order_key : float option;     (* value of the order_by expression *)
  faults : Eval.fault list;
}

type result = {
  selected : string list;  (* host names, best first *)
  verdicts : verdict list; (* every server examined, in scan order *)
}

let binding_for (view : server_view) name : Value.t option =
  let num f = Some (Value.Num f) in
  match Report_binding.variable view.record.Smart_proto.Records.report name with
  | Some f -> num f
  | None ->
    (match name with
    | "monitor_network_delay" ->
      Option.map
        (fun e ->
          Value.Num (Smart_util.Units.s_to_ms e.Smart_proto.Records.delay))
        view.net
    | "monitor_network_bw" ->
      Option.map
        (fun e ->
          Value.Num
            (Smart_util.Units.bytes_per_sec_to_mbps
               e.Smart_proto.Records.bandwidth))
        view.net
    | "host_security_level" ->
      Option.map (fun l -> Value.Num (float_of_int l)) view.security_level
    | _ -> None)

(* A denied/preferred entry matches a server by host name or IP. *)
let matches (view : server_view) entry =
  let report = view.record.Smart_proto.Records.report in
  String.equal entry report.Smart_proto.Report.host
  || String.equal entry report.Smart_proto.Report.ip

let rank_in lst view =
  let rec go i = function
    | [] -> None
    | entry :: rest -> if matches view entry then Some i else go (i + 1) rest
  in
  go 0 lst

(* The per-server value of the requirement's last [order_by] assignment,
   read from the statement results. *)
let order_key_of (outcome : Eval.outcome) (program : Ast.program) =
  let is_order_by (st : Ast.statement) =
    match st.Ast.expr with
    | Ast.Assign (name, _) -> String.equal name "order_by"
    | Ast.Number _ | Ast.Netaddr _ | Ast.Var _ | Ast.Arith _ | Ast.Cmp _
    | Ast.Logic _ | Ast.Call _ | Ast.Neg _ | Ast.Paren _ ->
      false
  in
  List.fold_left2
    (fun acc st (res : Eval.statement_result) ->
      if is_order_by st then
        match res.Eval.value with
        | Ok (Value.Num f) -> Some f
        | Ok (Value.Addr _) | Error _ -> acc
      else acc)
    None program outcome.Eval.statements

let select ~(requirement : Ast.program) ~(servers : server_view list) ~wanted
    =
  let verdicts =
    List.map
      (fun view ->
        let outcome = Eval.run ~lookup:(binding_for view) requirement in
        let preferred, denied = Eval.host_lists outcome in
        {
          host = view.record.Smart_proto.Records.report.Smart_proto.Report.host;
          qualified = outcome.Eval.qualified;
          denied = List.exists (matches view) denied;
          preferred_rank = rank_in preferred view;
          order_key = order_key_of outcome requirement;
          faults = outcome.Eval.faults;
        })
      servers
  in
  let eligible =
    List.filter (fun v -> v.qualified && not v.denied) verdicts
  in
  let preferred, others =
    List.partition (fun v -> v.preferred_rank <> None) eligible
  in
  let compare_rank a b =
    match (a.preferred_rank, b.preferred_rank) with
    | Some x, Some y -> Int.compare x y
    | Some _, None -> -1
    | None, Some _ -> 1
    | None, None -> 0
  in
  let preferred = List.sort compare_rank preferred in
  (* order_by ranks the non-preferred candidates, best (largest) first;
     List.stable_sort keeps scan order among ties and when no key *)
  let others =
    if List.exists (fun v -> v.order_key <> None) others then
      List.stable_sort
        (fun a b ->
          (* +. 0.0 collapses -0.0 onto 0.0, so keys IEEE-equal tie and
             scan order decides — the property the heap path relies on *)
          Float.compare
            (Option.value ~default:neg_infinity b.order_key +. 0.0)
            (Option.value ~default:neg_infinity a.order_key +. 0.0))
        others
    else others
  in
  let limit = min wanted Smart_proto.Ports.max_reply_servers in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x.host :: take (n - 1) rest
  in
  { selected = take limit (preferred @ others); verdicts }
