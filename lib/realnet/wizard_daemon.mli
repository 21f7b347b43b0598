(** Real-socket wizard machine: TCP receiver accept loop plus the UDP
    request loop, replying directly to each requester's sockaddr. *)

type config = {
  host : string;
  mode : Smart_core.Wizard.mode;
  staleness_threshold : float;
      (** receiver silence (wall-clock seconds) before replies carry the
          degraded flag; [infinity] never degrades *)
  admission : Smart_core.Wizard.admission option;
      (** arm {!Smart_core.Wizard.admission}: token buckets keyed on each
          requester's IP address gate the request port, shedding
          sustained overload fairly (delayed requests are released by
          the daemon's tick loop); [None] leaves the port ungated *)
}

type t

val create : Addr_book.t -> config -> t

val start : t -> unit

val stop : t -> unit

val db : t -> Smart_core.Status_db.t

val wizard : t -> Smart_core.Wizard.t

(** The machine-wide registry shared by receiver and wizard; also served
    over UDP to [Smart_proto.Metrics_msg] scrapes on the wizard's request
    port. *)
val metrics : t -> Smart_util.Metrics.t

(** The machine-wide flight recorder shared by receiver and wizard (256
    most recent spans, wall clock); also served over UDP to
    [Smart_proto.Trace_msg] scrapes on the wizard's request port. *)
val tracelog : t -> Smart_util.Tracelog.t
