(** The client library over real sockets (§3.6.2): request, validated
    reply with retry, then one connected TCP socket per candidate. *)

type connected_server = { host : string; socket : Unix.file_descr }

(** Ask the wizard for candidate host names.  [metrics] receives the
    [client.*] instruments (see OBSERVABILITY.md).  The client library's
    {!Smart_core.Client.exchange} schedules the request: it is
    retransmitted up to [retries] extra times, each receive window drawn
    from [backoff] (the same truncated-exponential policy the simulated
    client uses) and capped by [timeout], and the request gives up once
    the sum of those capped nominal windows has passed.  A reply for
    another sequence number is dropped. *)
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
    rendered dump.  [Error] carries a human-readable reason (resolution,
    send failure or timeout). *)
val scrape_metrics :
  ?timeout:float ->
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
  ?timeout:float ->
  ?format:Smart_proto.Trace_msg.format ->
  Addr_book.t ->
  host:string ->
  port:int ->
  unit ->
  (string, string) result

(** The full flow: ask, then TCP-connect each candidate's service port.
    [connect_timeout] bounds each handshake (non-blocking connect +
    select), so a black-holed candidate costs seconds instead of the
    kernel default.  A candidate that refuses or times out is skipped
    and counted in
    [client.connect_failed_total] (when [metrics] is given); the partial
    socket list is returned. *)
val request_sockets :
  ?option:Smart_proto.Wizard_msg.option_flag ->
  ?timeout:float ->
  ?retries:int ->
  ?backoff:Smart_util.Backoff.policy ->
  ?connect_timeout:float ->
  ?rng:Smart_util.Prng.t ->
  ?metrics:Smart_util.Metrics.t ->
  Addr_book.t ->
  wizard_host:string ->
  wanted:int ->
  requirement:string ->
  unit ->
  (connected_server list, Smart_core.Client.error) result

val close_all : connected_server list -> unit
