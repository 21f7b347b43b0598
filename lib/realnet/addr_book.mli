(** Host-name resolution for the real-socket driver.

    Production: one machine per logical host, zero port shift.
    Single-machine tests: every "host" is 127.0.0.1 with a distinct
    port shift so the fixed daemon ports (Table 4.2) never collide. *)

type t

val create : unit -> t

(** Register a host explicitly. *)
val register :
  t -> host:string -> addr:Unix.inet_addr -> ?port_shift:int -> unit -> unit

(** Register a loopback pseudo-host with a fresh unique shift; returns
    the shift. *)
val register_loopback : t -> host:string -> int

(** Resolve to a sockaddr; an unregistered IP literal resolves to
    itself and other unregistered hosts go through the system resolver,
    both with shift 0. *)
val resolve : t -> host:string -> port:int -> Unix.sockaddr option

(** Shift of a registered host (0 when unknown). *)
val port_shift : t -> host:string -> int

(** Best-effort reverse lookup of a registered pseudo-host. *)
val host_of_sockaddr : t -> Unix.sockaddr -> string option
