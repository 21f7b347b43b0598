(* Metrics scrape datagrams.  Like the transmitter's pull request, a
   scrape is a magic string on an already-open daemon socket: no extra
   port, no framing, one request datagram in and one reply datagram out.
   The reply is the rendered dump itself — text for eyeballs, JSON for
   tooling. *)

type format = Text | Json

let request_magic = "SMART-METRICS"

let encode_request = function
  | Text -> request_magic ^ " text"
  | Json -> request_magic ^ " json"

(* Whether [data] begins with [request_magic], compared in place from
   byte [i] on: daemons test every datagram they receive, so a miss
   must not allocate. *)
let rec has_magic data i =
  i = String.length request_magic
  || i < String.length data
     && Char.equal data.[i] request_magic.[i]
     && has_magic data (i + 1)

let decode_request data =
  if not (has_magic data 0) then None
  else
    let magic_len = String.length request_magic in
    match
      String.trim (String.sub data magic_len (String.length data - magic_len))
    with
    | "" | "text" -> Some Text
    | "json" -> Some Json
    | _ -> None

let encode_reply format metrics =
  match format with
  | Text -> Smart_util.Metrics.to_text metrics
  | Json -> Smart_util.Metrics.to_json metrics
