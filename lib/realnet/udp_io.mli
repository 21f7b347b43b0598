(** UDP endpoint with a background receive thread. *)

type t

(** Bind a socket (port 0 for ephemeral); raises [Unix.Unix_error] on
    conflicts. *)
val bind_port : ?addr:Unix.inet_addr -> int -> t

(** The actually bound port. *)
val port : t -> int

(** Start the receive loop; the handler runs on the receiver thread. *)
val start : t -> (from:Unix.sockaddr -> string -> unit) -> unit

(** Send one datagram; [false] on failure. *)
val send : t -> to_:Unix.sockaddr -> string -> bool

(** Answer a scrape arriving on a daemon socket: when [data] is a
    [Smart_proto.Metrics_msg] or [Smart_proto.Trace_msg] request, reply
    to [from] with the rendered [metrics] registry or [trace] flight
    recorder and return [true].  Otherwise return [false] without
    allocating, so a daemon can run it on every datagram before its own
    handling. *)
val answer_scrape :
  t ->
  metrics:Smart_util.Metrics.t ->
  trace:Smart_util.Tracelog.t ->
  from:Unix.sockaddr ->
  string ->
  bool

(** Stop the receive loop (if any) and close the socket. *)
val stop : t -> unit

(** Blocking receive with timeout, for one-shot client sockets that have
    not been [start]ed.  Every call reads into one process-wide 64 KB
    buffer, allocated once when the module initialises; a mutex holds it
    only across the [recvfrom] and the copy of the datagram out, so
    concurrent client threads take turns there and nowhere else. *)
val recv_timeout : t -> timeout:float -> (Unix.sockaddr * string) option
