(** The real-socket installer of a {!Smart_core.Role} description: the
    daemons are each one role installed here. *)

(** A fresh environment for one daemon: its own metrics registry, a
    256-span flight recorder and the wall clock. *)
val env : unit -> Smart_core.Role.env

(** [install book ~host role] resolves every peer the role names, binds
    its ports and returns the {!Loop} that serves them, not yet started,
    with [book] pinned to those peers.

    - Each port binds the address [book] gives [host] (the wildcard
      address when it has none), shifted by [host]'s port shift.
    - Datagram handlers see their sender as its IP literal and port;
      the scrape port answers scrapes ({!Smart_core.Role.scrape}) from
      its own socket.  A stream port accepts TCP connections, each one
      stream tagged with its peer's [ip:port].
    - A datagram handler's reply, a [Udp] output addressed to the very
      sender record the handler was given, goes back to the sockaddr
      the datagram came from ({!Perform.replies}), with no trip through
      names.  Every other output resolves through [book] pinned to the
      role's peers ({!Addr_book.pin}): on the loop a destination is one
      of those or an IP literal, never a lookup.  UDP leaves from the
      sink's port's socket (the scrape port's when it serves none).
    - Timers keep their offsets and order, without jitter.

    Raises [Failure] when a peer does not resolve, and
    [Unix.Unix_error] when a port cannot be bound (the ports bound
    before it are closed again). *)
val install :
  Addr_book.t -> host:string -> 'a Smart_core.Role.t -> Loop.t * Addr_book.t
