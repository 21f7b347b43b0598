(** Real-socket wizard machine on one {!Loop}: TCP receiver connections
    plus the UDP request socket, replying to each requester's sockaddr. *)

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
          the daemon's tick); [None] leaves the port ungated *)
}

type t

val create : Addr_book.t -> config -> t

val start : t -> unit

val stop : t -> unit

(** The daemon's database and wizard.  Both are loop-owned state: read
    or write them only while the loop is stopped (before {!start} or
    after {!stop}).  A running daemon's contents are what its request
    and scrape ports answer. *)
val db : t -> Smart_core.Status_db.t

val wizard : t -> Smart_core.Wizard.t
