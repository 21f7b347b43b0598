(* Flight-recorder scrape datagrams, mirroring Metrics_msg: a magic
   string on an already-open daemon socket, answered with the daemon's
   recent span ring rendered as text or Chrome trace-event JSON. *)

type format = Text | Json

let request_magic = "SMART-TRACE"

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

let encode_reply format tracelog =
  match format with
  | Text -> Smart_util.Tracelog.to_text tracelog
  | Json -> Smart_util.Tracelog.to_chrome_json tracelog
