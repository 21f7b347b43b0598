(** Reference server selection (§3.6.1, Fig 1.4) over a list of
    per-server views: evaluate the requirement per server with {!Eval},
    exclude blacklisted hosts, order preferred hosts first, then by the
    [order_by] key (descending) when the requirement assigns one, cut to
    the requested count.  The test suites hold the wizard's columnar
    [Smart_core.Selection.select_columns] to this answer. *)

type server_view = {
  record : Smart_proto.Records.sys_record;  (** latest probe report *)
  net : Smart_proto.Records.net_entry option;
      (** network metrics toward this server *)
  security_level : int option;
      (** clearance from the security table, if any *)
}

type verdict = {
  host : string;
  qualified : bool;
  denied : bool;
  preferred_rank : int option;
  order_key : float option;  (** per-server value of [order_by] *)
  faults : Eval.fault list;
}

type result = {
  selected : string list;  (** best candidates first *)
  verdicts : verdict list; (** every server examined, in scan order *)
}

(** Evaluate [requirement] against every view in [servers] (scan order)
    and pick the best [wanted] candidates. *)
val select :
  requirement:Smart_lang.Ast.program ->
  servers:server_view list ->
  wanted:int ->
  result
