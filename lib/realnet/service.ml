(* The per-server TCP service the client library connects the returned
   sockets to.  A tiny line-oriented protocol sufficient for the examples
   and integration tests:

     ECHO <text>\n   -> <text>\n
     WHO\n           -> <server name>\n
     GET <bytes>\n   -> exactly <bytes> bytes of payload (the massd
                        file-server role)
     BYE\n           -> connection closed                              *)

type t = {
  name : string;
  socket : Unix.file_descr;
  mutable running : bool;
  mutable stopped : bool;
  mutable thread : Thread.t option;
}

let create book ~name =
  let shift = Addr_book.port_shift book ~host:name in
  let socket = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt socket Unix.SO_REUSEADDR true;
  Unix.bind socket
    (Unix.ADDR_INET
       (Addr_book.bind_addr book ~host:name, Smart_proto.Ports.service + shift));
  Unix.listen socket 16;
  { name; socket; running = false; stopped = false; thread = None }

let read_line_opt fd =
  let buf = Buffer.create 64 in
  let byte = Bytes.create 1 in
  let rec go () =
    match Unix.read fd byte 0 1 with
    | 0 -> if Buffer.length buf = 0 then None else Some (Buffer.contents buf)
    | _ ->
      if Bytes.get byte 0 = '\n' then Some (Buffer.contents buf)
      else begin
        Buffer.add_char buf (Bytes.get byte 0);
        go ()
      end
    | exception Unix.Unix_error (_, _, _) -> None
  in
  go ()

let write_line fd line =
  let data = line ^ "\n" in
  try ignore (Unix.write_substring fd data 0 (String.length data))
  with Unix.Unix_error (_, _, _) -> ()

(* Stream exactly [n] payload bytes to the client. *)
let send_blob fd n =
  let chunk = Bytes.make 8192 'd' in
  let rec go remaining =
    if remaining > 0 then begin
      let len = min remaining (Bytes.length chunk) in
      match Unix.write fd chunk 0 len with
      | written when written > 0 -> go (remaining - written)
      | _ -> ()
      | exception Unix.Unix_error (_, _, _) -> ()
    end
  in
  go n

let serve t client =
  let rec go () =
    match read_line_opt client with
    | None -> ()
    | Some line ->
      if String.length line >= 5 && String.equal (String.sub line 0 5) "ECHO "
      then begin
        write_line client (String.sub line 5 (String.length line - 5));
        go ()
      end
      else if String.equal line "WHO" then begin
        write_line client t.name;
        go ()
      end
      else if
        String.length line >= 4 && String.equal (String.sub line 0 4) "GET "
      then begin
        (match int_of_string_opt (String.trim (String.sub line 4 (String.length line - 4))) with
        | Some n when n >= 0 && n <= 1_000_000_000 -> send_blob client n
        | Some _ | None -> write_line client "ERR bad size");
        go ()
      end
      else if String.equal line "BYE" then ()
      else begin
        write_line client "ERR unknown command";
        go ()
      end
  in
  go ();
  try Unix.close client with Unix.Unix_error (_, _, _) -> ()

let start t =
  if t.running then invalid_arg "Service.start: already running";
  t.running <- true;
  let loop () =
    while t.running do
      match Unix.accept t.socket with
      | client, _ ->
        ignore (Thread.create (fun () -> serve t client) ())
      | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL | Unix.EINTR), _, _)
        ->
        ()
    done
  in
  t.thread <- Some (Thread.create loop ())

(* Only the first call acts: a later one would self-connect to and
   close whatever descriptor has reused the socket's number since. *)
let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    t.running <- false;
    (try
       match Unix.getsockname t.socket with
       | Unix.ADDR_INET (addr, port) ->
         (* the bound address; the wildcard one dials this host *)
         let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
         (try Unix.connect s (Unix.ADDR_INET (addr, port))
          with Unix.Unix_error (_, _, _) -> ());
         Unix.close s
       | Unix.ADDR_UNIX _ -> ()
     with Unix.Unix_error (_, _, _) -> ());
    (match t.thread with Some th -> Thread.join th | None -> ());
    t.thread <- None;
    try Unix.close t.socket with Unix.Unix_error (_, _, _) -> ()
  end
