(* Wizard request and reply messages (Tables 3.5 and 3.6).

   Requests and replies travel in single UDP datagrams; both carry the
   client-chosen sequence number so the client library can match replies
   to outstanding requests.  These messages are exchanged between
   machines of arbitrary architecture, so unlike the transmitter frames
   they use a fixed (big-endian) network byte order. *)

let order = Endian.Big

(* §3.6.1 option field *)
type option_flag =
  | Strict           (* fewer servers than requested is a failure *)
  | Accept_partial   (* take whatever qualified *)

let option_code = function Strict -> 0 | Accept_partial -> 1

let option_of_code = function
  | 0 -> Some Strict
  | 1 -> Some Accept_partial
  | _ -> None

(* Bit 1 of the option field flags an appended trace context.  Untraced
   requests encode exactly as they always did, so old and new daemons
   interoperate and the golden byte-level tests stay valid. *)
let ctx_flag = 2

type request = {
  seq : int;            (* random 32-bit id chosen by the client *)
  server_num : int;     (* servers wanted, <= Ports.max_reply_servers *)
  option : option_flag;
  requirement : string; (* meta-language source text *)
  trace : Smart_util.Tracelog.ctx;
      (* the client's span, so the wizard's spans join its trace;
         [Tracelog.root] travels as no bytes at all *)
}

let encode_request r =
  if r.server_num < 0 || r.server_num > 0xFFFF then
    invalid_arg "Wizard_msg.encode_request: bad server_num";
  let traced = not (Smart_util.Tracelog.is_root r.trace) in
  let header = if traced then 16 else 8 in
  let b = Bytes.create (header + String.length r.requirement) in
  Endian.set_u32 order b ~pos:0 (r.seq land 0xFFFFFFFF);
  Endian.set_u16 order b ~pos:4 r.server_num;
  Endian.set_u16 order b ~pos:6
    (option_code r.option lor if traced then ctx_flag else 0);
  if traced then begin
    Endian.set_u32 order b ~pos:8 (r.trace.Smart_util.Tracelog.trace_id land 0xFFFFFFFF);
    Endian.set_u32 order b ~pos:12 (r.trace.Smart_util.Tracelog.span_id land 0xFFFFFFFF)
  end;
  Bytes.blit_string r.requirement 0 b header (String.length r.requirement);
  Bytes.to_string b

let decode_request s =
  if String.length s < 8 then Error "request: truncated"
  else begin
    let seq = Endian.get_u32 order s ~pos:0 in
    let server_num = Endian.get_u16 order s ~pos:4 in
    let code = Endian.get_u16 order s ~pos:6 in
    let traced = code land ctx_flag <> 0 in
    if code land lnot (1 lor ctx_flag) <> 0 then
      Error "request: unknown option code"
    else if traced && String.length s < 16 then
      Error "request: truncated trace context"
    else
      match option_of_code (code land 1) with
      | None -> Error "request: unknown option code"
      | Some option ->
        let trace =
          if traced then
            {
              Smart_util.Tracelog.trace_id = Endian.get_u32 order s ~pos:8;
              span_id = Endian.get_u32 order s ~pos:12;
            }
          else Smart_util.Tracelog.root
        in
        let header = if traced then 16 else 8 in
        Ok
          {
            seq;
            server_num;
            option;
            requirement = String.sub s header (String.length s - header);
            trace;
          }
  end

(* Bit 15 of the reply's server-count word flags a degraded answer: the
   wizard served it from a stale snapshot because its receiver feed had
   gone quiet.  Bit 14 flags an admission rejection: the wizard shed the
   request under overload and the client should back off before asking
   again.  Unflagged replies encode exactly as they always did. *)
let degraded_flag = 0x8000

let rejected_flag = 0x4000

type reply = {
  seq : int;
  servers : string list;  (* host names or IPs, best first *)
  degraded : bool;        (* answered from a stale snapshot *)
  rejected : bool;        (* shed by admission control; back off *)
}

(* Bytes of the length-prefixed server names. *)
let rec names_size acc = function
  | [] -> acc
  | server :: rest ->
    if String.length server > 0xFF then
      invalid_arg "Wizard_msg.encode_reply: server name too long";
    names_size (acc + 1 + String.length server) rest

let rec write_names b pos = function
  | [] -> ()
  | server :: rest ->
    let len = String.length server in
    Bytes.set b pos (Char.chr len);
    Bytes.blit_string server 0 b (pos + 1) len;
    write_names b (pos + 1 + len) rest

(* One exactly sized buffer, header then names.  The bytes never escape,
   so handing them over as the string copies nothing. *)
let encode_reply r =
  let count = List.length r.servers in
  if count > Ports.max_reply_servers then
    invalid_arg "Wizard_msg.encode_reply: too many servers";
  let b = Bytes.create (names_size 6 r.servers) in
  Endian.set_u32 order b ~pos:0 (r.seq land 0xFFFFFFFF);
  Endian.set_u16 order b ~pos:4
    (count
    lor (if r.degraded then degraded_flag else 0)
    lor if r.rejected then rejected_flag else 0);
  write_names b 6 r.servers;
  Bytes.unsafe_to_string b

let decode_reply s =
  if String.length s < 6 then Error "reply: truncated"
  else begin
    let seq = Endian.get_u32 order s ~pos:0 in
    let word = Endian.get_u16 order s ~pos:4 in
    let degraded = word land degraded_flag <> 0 in
    let rejected = word land rejected_flag <> 0 in
    let count = word land lnot (degraded_flag lor rejected_flag) in
    let rec read pos n acc =
      if n = 0 then Ok (List.rev acc)
      else if pos >= String.length s then Error "reply: truncated server list"
      else begin
        let len = Char.code s.[pos] in
        if pos + 1 + len > String.length s then
          Error "reply: truncated server entry"
        else
          read (pos + 1 + len) (n - 1) (String.sub s (pos + 1) len :: acc)
      end
    in
    match read 6 count [] with
    | Ok servers -> Ok { seq; servers; degraded; rejected }
    | Error _ as e -> e
  end
