(** The server probe's periodic status report (Table 3.1), transmitted as
    a byte-order-neutral ASCII string under 200 bytes. *)

type t = {
  host : string;
  ip : string;
  load1 : float;
  load5 : float;
  load15 : float;
  cpu_user : float;    (** fraction of the last probe interval *)
  cpu_nice : float;
  cpu_system : float;
  cpu_free : float;
  bogomips : float;
  mem_total : float;   (** megabytes *)
  mem_used : float;
  mem_free : float;
  mem_buffers : float;
  mem_cached : float;
  disk_rreq : float;   (** per-second over the last interval *)
  disk_rblocks : float;
  disk_wreq : float;
  disk_wblocks : float;
  net_rbytes : float;
  net_rpackets : float;
  net_tbytes : float;
  net_tpackets : float;
}

(** [to_string ?trace r] renders the report.  A non-root [trace] appends
    a trace-context suffix; the default ({!Smart_util.Tracelog.root})
    keeps the rendering byte-identical to the pre-trace format. *)
val to_string : ?trace:Smart_util.Tracelog.ctx -> t -> string

(** Parse a report along with its trace context
    ({!Smart_util.Tracelog.root} when the suffix is absent). *)
val decode : string -> (t * Smart_util.Tracelog.ctx, string) result

(** {!decode}, discarding the trace context. *)
val of_string : string -> (t, string) result

(** Bind one of the 22 [host_*] requirement variables; [None] for names
    this report does not define. *)
val variable : t -> string -> float option

(** {!variable} with the name resolved once — the per-field reader used
    by columnar row fills.  [reader name] is [Some f] with
    [f r = Option.get (variable r name)] exactly when
    [variable r name] is defined. *)
val reader : string -> (t -> float) option
