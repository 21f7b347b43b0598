(** UDP endpoint, read on a daemon's {!Loop} or by {!recv_timeout}. *)

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
    empty datagram or a failed [recvfrom] does not end the wait.  It
    serves the one-shot sockets of scrapes and echo probes and the
    endpoints {!Client_io} keeps between calls.  Every call reads into
    one process-wide 64 KB buffer, allocated once when the module
    initialises (a buffer per kept endpoint would count in the
    process's live heap); a mutex holds it only across the [recvfrom]
    and the copy of the datagram out, so concurrent client threads take
    turns there and nowhere else. *)
val recv_timeout : t -> timeout:float -> (Unix.sockaddr * string) option
