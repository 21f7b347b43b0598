(** The reference binding of the 22 server-side [host_*] requirement
    variables to a status report, read field by field by name.  The
    columnar snapshot binds them through {!Smart_proto.Report.source};
    the tests hold it to this one. *)

(** [None] for names the report does not define. *)
val variable : Smart_proto.Report.t -> string -> float option
