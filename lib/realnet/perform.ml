(* Execute sans-IO component outputs on real sockets.

   [Udp] outputs become single datagrams; [Stream] outputs become a
   one-shot TCP connection (connect, send, close) — frames are
   self-delimiting, so the receiver reassembles regardless of connection
   boundaries. *)

let close_quietly socket =
  try Unix.close socket with Unix.Unix_error (_, _, _) -> ()

(* Every exit that does not hand the socket over closes it, unexpected
   exceptions included: a failed connect never leaks its descriptor. *)
let connect ~timeout sockaddr =
  let socket = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match
    Unix.set_nonblock socket;
    (try Unix.connect socket sockaddr
     with Unix.Unix_error (Unix.EINPROGRESS, _, _) -> ());
    (* writability signals the handshake's end; SO_ERROR says how it
       went *)
    match Unix.select [] [ socket ] [] timeout with
    | _, _ :: _, _ when Option.is_none (Unix.getsockopt_error socket) ->
      Unix.clear_nonblock socket;
      true
    | _ -> false
  with
  | true -> Some socket
  | false | (exception Unix.Unix_error (_, _, _)) ->
    close_quietly socket;
    None
  | exception e ->
    close_quietly socket;
    raise e

(* A push runs on the monitor's event loop, so connecting and writing
   together get a fixed bound: a wizard host that drops SYNs or stops
   reading costs the loop this long, not the kernel's connect timeout. *)
let stream_bound = 1.0

let send_stream sockaddr data =
  let deadline = Unix.gettimeofday () +. stream_bound in
  match connect ~timeout:stream_bound sockaddr with
  | None -> false
  | Some socket ->
    Fun.protect
      ~finally:(fun () -> close_quietly socket)
      (fun () ->
        (* past the deadline, a write that would wait fails *)
        let rec write off =
          let left = String.length data - off
          and wait = Float.max 0.0 (deadline -. Unix.gettimeofday ()) in
          left = 0
          ||
          match Unix.select [] [ socket ] [] wait with
          | _, [], _ -> false
          | _ -> write (off + Unix.write_substring socket data off left)
        in
        try
          Unix.set_nonblock socket;
          write 0
        with Unix.Unix_error (_, _, _) -> false)

(* A UDP output addressed to [requester] itself (physically: the record
   a datagram handler was given) goes back to [from], the sockaddr the
   datagram came from, with no trip through the book; any other
   destination resolves through it.  Direct recursion, so a batch builds
   no closure. *)
let rec replies book ~udp ~requester ~from ~on_stream_failure ~on_stream_ok =
  function
  | [] -> ()
  | out :: rest ->
    (match out with
    | Smart_core.Output.Udp { dst; data } when dst == requester ->
      ignore (Udp_io.send udp ~to_:from data)
    | Smart_core.Output.Udp { dst; data } ->
      (match Addr_book.resolve book ~host:dst.host ~port:dst.port with
      | Some to_ -> ignore (Udp_io.send udp ~to_ data)
      | None -> ())
    | Smart_core.Output.Stream { dst; data } ->
      (match Addr_book.resolve book ~host:dst.host ~port:dst.port with
      | Some sockaddr when send_stream sockaddr data -> on_stream_ok ()
      | Some _ | None -> on_stream_failure ~data));
    replies book ~udp ~requester ~from ~on_stream_failure ~on_stream_ok rest

(* The requester of a batch no datagram caused: no component holds it,
   so no output is addressed to it. *)
let nobody = { Smart_core.Output.host = ""; port = 0 }

let outputs ?(on_stream_failure = fun ~data:_ -> ()) ?(on_stream_ok = ignore)
    book ~udp outs =
  replies book ~udp ~requester:nobody ~from:(Unix.ADDR_UNIX "")
    ~on_stream_failure ~on_stream_ok outs
