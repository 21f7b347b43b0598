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

(** Number of numeric fields: every field but [host] and [ip]. *)
val field_count : int

(** Numeric field [k], [0 <= k < field_count], in declaration order
    ([field r 0] is [load1], [field r 20] is [net_tpackets]) — the order
    the ASCII report and the binary system record carry them in. *)
val field : t -> int -> float

(** How a [host_*] variable is computed from the numeric fields: one
    field, or the sum [field r i +. field r j] of two
    ([host_disk_allreq]). *)
type source = Field of int | Sum of int * int

(** The binding of the 22 [host_*] requirement variables as field
    positions, resolved once by name for columnar row fills: a variable
    is [field r k] when [source name = Some (Field k)],
    [field r i +. field r j] when it is [Some (Sum (i, j))], and
    undefined exactly when [source name] is [None]. *)
val source : string -> source option
