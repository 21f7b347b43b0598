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

let outputs ?(on_stream_failure = fun ~data:_ -> ()) ?(on_stream_ok = ignore)
    book ~(udp : Udp_io.t) outs =
  let resolve { Smart_core.Output.host; port } =
    Addr_book.resolve book ~host ~port
  in
  List.iter
    (function
      | Smart_core.Output.Udp { dst; data } ->
        Option.iter (fun to_ -> ignore (Udp_io.send udp ~to_ data)) (resolve dst)
      | Smart_core.Output.Stream { dst; data } ->
        (match resolve dst with
        | Some sockaddr when send_stream sockaddr data -> on_stream_ok ()
        | Some _ | None -> on_stream_failure ~data))
    outs
