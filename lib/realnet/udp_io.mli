(** UDP endpoint, read on a daemon's {!Loop} or by a client's
    {!recv_timeout}, {!recv} or {!drain}. *)

type t

(** Bind a socket to [addr] (default: the wildcard address, so the
    kernel picks each datagram's source address) and [port] (0 for
    ephemeral); raises [Unix.Unix_error] on conflicts, having closed
    the socket. *)
val bind_port : ?addr:Unix.inet_addr -> int -> t

(** Register the socket with the loop: each datagram, empty ones
    included, goes to the handler on the loop's thread with that
    wakeup's clock reading and its sender.  The loop owns the socket
    from then on and closes it when it stops. *)
val serve :
  Loop.t -> t -> (now:float -> from:Unix.sockaddr -> string -> unit) -> unit

(** Send one datagram; [false] on failure. *)
val send : t -> to_:Unix.sockaddr -> string -> bool

(** Close the socket. *)
val stop : t -> unit

(** Blocking receive with timeout, client side: the next non-empty
    datagram and its sender, or [None] once [timeout] has passed.  An
    empty datagram, a failed receive and a signal that interrupts the
    wait ([EINTR]) do not end it: it goes on for what is left of
    [timeout].  It serves the one-shot sockets of scrapes and echo
    probes.  Every receive of this module off the daemon's loop ({!recv}
    and {!drain} too) reads into one process-wide 64 KB buffer,
    allocated once when the module initialises (a buffer per kept
    endpoint would count in the process's live heap); a mutex holds it
    only across the receive and the copy of the datagram out, so
    concurrent client threads take turns there and nowhere else. *)
val recv_timeout : t -> timeout:float -> (Unix.sockaddr * string) option

(** {!recv_timeout} without the sender, which it never reads from the
    kernel: the wait of the endpoints {!Client_io} keeps between calls.
    A wait on one of those allocates the datagram's copy, its option and
    the [select] lists, no sockaddr. *)
val recv : t -> timeout:float -> string option

(** Read and drop every datagram already waiting, without blocking and
    without copying them out; one zero-timeout [select] when none is. *)
val drain : t -> unit
