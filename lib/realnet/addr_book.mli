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
    itself and other unregistered hosts go through the system resolver
    (never for a {!pin}ned book), both with shift 0. *)
val resolve : t -> host:string -> port:int -> Unix.sockaddr option

(** Shift of a registered host (0 when unknown). *)
val port_shift : t -> host:string -> int

(** The address a daemon on [host] binds its ports to: the registered
    one, or the wildcard address when [host] has no entry. *)
val bind_addr : t -> host:string -> Unix.inet_addr

(** A copy of the book with an entry for each of [hosts], resolved now
    through {!resolve}, that never asks the system resolver again: a
    name it has no entry for resolves only as an IP literal.  Raises
    [Failure] naming the first host that does not resolve. *)
val pin : t -> hosts:string list -> t
