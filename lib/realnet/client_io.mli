(** The client library over real sockets (§3.6.2): request, validated
    reply with retry, then one connected TCP socket per candidate.
    Scrapes keep one-shot sockets, because their replies carry no
    sequence number to match. *)

type connected_server = { host : string; socket : Unix.file_descr }

(** Ask the wizard for candidate host names.  [metrics] receives the
    [client.*] instruments (see OBSERVABILITY.md).  The client library's
    {!Smart_core.Client.exchange} schedules the request: it is
    retransmitted up to [retries] extra times, each receive window drawn
    from [backoff] (the same truncated-exponential policy the simulated
    client uses) and capped by [timeout], and the request gives up once
    the sum of those capped nominal windows has passed.  A reply for
    another sequence number is dropped.

    A call runs on an endpoint it borrows from a private idle list:
    a bound UDP socket, a generator of its own, seeded once, and the
    {!Smart_core.Client} and retry schedule last built on it.  Sequence
    numbers come from [rng], or from the endpoint's generator when it is
    absent, so successive calls draw fresh ones.  The [Client] is
    rebuilt only when a call passes a different [metrics] registry or
    [rng] (compared physically) than the endpoint's last call, so a
    caller that passes the same ones, or none, resolves its instruments
    once; the schedule (the capped policy and the give-up budget) only
    when [backoff] (compared physically), [timeout] or [retries]
    differs.  Before its first send a call drains the endpoint without
    blocking ({!Udp_io.drain}): a late reply, a duplicate or junk that
    reached it while idle is discarded, and the call sees what a fresh
    socket would.  It then waits with {!Udp_io.recv}, which reads no
    sender: a signal that interrupts the wait does not end it, and the
    call ends only at its reply, its verdict or its give-up.  However
    the call ends, the endpoint goes back on the list, unless an
    exception ends it, which closes the socket.

    A new endpoint is bound only when none is idle, so the list holds as
    many as calls were ever in flight at once: one for each caller
    thread, and its descriptor stays open between calls.  Idle endpoints
    belong to the process that bound them: a process that forks after a
    call shares their sockets with its child, so a forked client must
    make its first call after the fork. *)
val request_servers :
  ?option:Smart_proto.Wizard_msg.option_flag ->
  ?timeout:float ->
  ?retries:int ->
  ?backoff:Smart_util.Backoff.policy ->
  ?rng:Smart_util.Prng.t ->
  ?metrics:Smart_util.Metrics.t ->
  Addr_book.t ->
  wizard_host:string ->
  wanted:int ->
  requirement:string ->
  unit ->
  (string list, Smart_core.Client.error) result

(** Scrape one daemon's metrics registry: sends the
    [Smart_proto.Metrics_msg] magic to [host]:[port] (the wizard request
    port, a transmitter pull port or a probe echo port) and returns the
    rendered dump within 2 s.  [Error] carries a human-readable reason
    (resolution, send failure or timeout). *)
val scrape_metrics :
  ?format:Smart_proto.Metrics_msg.format ->
  Addr_book.t ->
  host:string ->
  port:int ->
  unit ->
  (string, string) result

(** Scrape one daemon's flight recorder: sends the
    [Smart_proto.Trace_msg] magic to [host]:[port] (same ports as
    {!scrape_metrics}) and returns the span dump — recent spans as text
    or Chrome trace-event JSON. *)
val scrape_trace :
  ?format:Smart_proto.Trace_msg.format ->
  Addr_book.t ->
  host:string ->
  port:int ->
  unit ->
  (string, string) result

(** The full flow: ask (as {!request_servers} does by default), then
    TCP-connect each candidate's service port, each handshake bounded by
    {!Perform.stream_bound} (non-blocking connect + select), so a
    black-holed candidate costs a second instead of the kernel default.
    A candidate that refuses or times out is skipped; the partial socket
    list is returned. *)
val request_sockets :
  ?option:Smart_proto.Wizard_msg.option_flag ->
  Addr_book.t ->
  wizard_host:string ->
  wanted:int ->
  requirement:string ->
  unit ->
  (connected_server list, Smart_core.Client.error) result

val close_all : connected_server list -> unit
