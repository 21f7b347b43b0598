(** Execute sans-IO component outputs on real sockets: [Udp] becomes a
    datagram, [Stream] a one-shot TCP connection (frames are
    self-delimiting, so connection boundaries do not matter). *)

(** A blocking TCP socket connected to the address, or [None] if the
    handshake fails or takes over [timeout] seconds, so a host that
    drops SYNs costs the bound, not the kernel's minutes-long default. *)
val connect : timeout:float -> Unix.sockaddr -> Unix.file_descr option

(** One second: the bound on a push's connect and write together, and
    on each candidate connect of {!Client_io.request_sockets}. *)
val stream_bound : float

(** Perform a batch of outputs in order, resolving hosts through the
    book and sending datagrams from [udp].  Unresolvable UDP
    destinations are dropped.  A [Stream] not connected and written
    within a second invokes [on_stream_failure] with the undelivered
    frame bytes — the transmitter's hook for queueing a resend; each
    fully written stream invokes [on_stream_ok]. *)
val outputs :
  ?on_stream_failure:(data:string -> unit) ->
  ?on_stream_ok:(unit -> unit) ->
  Addr_book.t ->
  udp:Udp_io.t ->
  Smart_core.Output.t list ->
  unit

(** {!outputs} for the batch a datagram handler returned, given the
    [requester] record the handler was handed and [from], the sockaddr
    the datagram came from: a [Udp] output whose destination is that
    record itself (physically) goes to [from] without a trip through the
    book.  An equal but rebuilt address resolves through the book as
    {!outputs} resolves it. *)
val replies :
  Addr_book.t ->
  udp:Udp_io.t ->
  requester:Smart_core.Output.address ->
  from:Unix.sockaddr ->
  on_stream_failure:(data:string -> unit) ->
  on_stream_ok:(unit -> unit) ->
  Smart_core.Output.t list ->
  unit
