(** Flight-recorder scrape datagrams: the trace-plane twin of
    {!Metrics_msg}.  Every realnet daemon recognises the magic on its
    existing UDP socket and replies with its span ring. *)

(** [Text] is {!Smart_util.Tracelog.to_text}; [Json] the Chrome
    trace-event rendering ({!Smart_util.Tracelog.to_chrome_json},
    Perfetto-loadable). *)
type format = Text | Json

val encode_request : format -> string

(** [Some format] when [data] is a trace scrape, [None] otherwise. *)
val decode_request : string -> format option

(** Render the flight recorder in [format] — the entire reply datagram.
    Daemons keep small rings (a few hundred spans), so dumps fit one
    64 KiB datagram. *)
val encode_reply : format -> Smart_util.Tracelog.t -> string
