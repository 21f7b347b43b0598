(** Metrics scrape datagrams: a magic request answered with a registry
    dump.  Every realnet daemon recognises these on its existing UDP
    socket, so observing a deployment needs no extra ports. *)

(** Rendering of the reply: [Text] is the line-oriented human dump,
    [Json] an object keyed by metric name (see
    {!Smart_util.Metrics.to_text} / {!Smart_util.Metrics.to_json}). *)
type format = Text | Json

(** The scrape datagram for [format]. *)
val encode_request : format -> string

(** [Some format] when [data] is a scrape request, [None] otherwise
    (daemons fall through to their normal datagram handling). *)
val decode_request : string -> format option

(** Render a registry in [format] — the entire reply datagram.  Dumps fit
    comfortably in one 64 KiB datagram (a metric renders in well under
    128 bytes; a daemon registers a few dozen). *)
val encode_reply : format -> Smart_util.Metrics.t -> string
