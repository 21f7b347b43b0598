(* Root <-> regional wizard messages of the federated status plane
   (DESIGN.md §13).

   A subquery fans a client requirement out from the root wizard to a
   regional (shard) wizard; the result carries the shard's ranked
   candidates back with enough ordering information — preference rank
   and order_by key — for the root to merge per-shard lists into exactly
   the list a single flat wizard would have produced.

   Both travel in single UDP datagrams on the federation port and,
   like the wizard messages, use fixed big-endian byte order; a 4-byte
   magic distinguishes the two directions on the shared port. *)

let order = Endian.Big

let query_magic = "SFQ1"

let result_magic = "SFR1"

(* flags *)
let ctx_flag = 1      (* query: an 8-byte trace context follows the header *)
let degraded_flag = 1 (* result: the shard answered from a stale snapshot *)

type query = {
  seq : int;
  wanted : int;
  requirement : string;
  trace : Smart_util.Tracelog.ctx;
}

let encode_query q =
  if q.wanted < 0 || q.wanted > 0xFFFF then
    invalid_arg "Fed_msg.encode_query: bad wanted";
  let traced = not (Smart_util.Tracelog.is_root q.trace) in
  let header = 12 + if traced then 8 else 0 in
  let b = Bytes.create (header + String.length q.requirement) in
  Bytes.blit_string query_magic 0 b 0 4;
  Endian.set_u32 order b ~pos:4 (q.seq land 0xFFFFFFFF);
  Endian.set_u16 order b ~pos:8 q.wanted;
  Endian.set_u16 order b ~pos:10 (if traced then ctx_flag else 0);
  if traced then begin
    Endian.set_u32 order b ~pos:12
      (q.trace.Smart_util.Tracelog.trace_id land 0xFFFFFFFF);
    Endian.set_u32 order b ~pos:16
      (q.trace.Smart_util.Tracelog.span_id land 0xFFFFFFFF)
  end;
  Bytes.blit_string q.requirement 0 b header (String.length q.requirement);
  Bytes.to_string b

let decode_query s =
  if String.length s < 12 then Error "fed query: truncated"
  else if not (String.equal (String.sub s 0 4) query_magic) then
    Error "fed query: bad magic"
  else begin
    let seq = Endian.get_u32 order s ~pos:4 in
    let wanted = Endian.get_u16 order s ~pos:8 in
    let flags = Endian.get_u16 order s ~pos:10 in
    if flags land lnot ctx_flag <> 0 then Error "fed query: unknown flags"
    else begin
      let traced = flags land ctx_flag <> 0 in
      if traced && String.length s < 20 then
        Error "fed query: truncated trace context"
      else begin
        let trace =
          if traced then
            {
              Smart_util.Tracelog.trace_id = Endian.get_u32 order s ~pos:12;
              span_id = Endian.get_u32 order s ~pos:16;
            }
          else Smart_util.Tracelog.root
        in
        let header = 12 + if traced then 8 else 0 in
        Ok
          {
            seq;
            wanted;
            requirement = String.sub s header (String.length s - header);
            trace;
          }
      end
    end
  end

(* One ranked candidate.  [rank >= 0] marks a preferred server (its
   position in the user_preferred_host list); for the rest [key] is the
   order_by value — [neg_infinity] when the requirement has none (or the
   statement produced nothing) and possibly NaN, which sorts after every
   real key.  Both travel as raw IEEE bits, so NaN survives the wire. *)
type candidate = { host : string; rank : int; key : float }

let no_rank = 0xFFFF

type reply = {
  seq : int;
  shard : string;
  generation : int;
  degraded : bool;
  candidates : candidate list;
}

let encode_reply r =
  if List.length r.candidates > 0xFFFF then
    invalid_arg "Fed_msg.encode_reply: too many candidates";
  if String.length r.shard > 0xFF then
    invalid_arg "Fed_msg.encode_reply: shard name too long";
  let buf = Buffer.create 256 in
  let b = Bytes.create 14 in
  Bytes.blit_string result_magic 0 b 0 4;
  Endian.set_u32 order b ~pos:4 (r.seq land 0xFFFFFFFF);
  Endian.set_u16 order b ~pos:8 (if r.degraded then degraded_flag else 0);
  Endian.set_u32 order b ~pos:10 (r.generation land 0xFFFFFFFF);
  Buffer.add_bytes buf b;
  Buffer.add_char buf (Char.chr (String.length r.shard));
  Buffer.add_string buf r.shard;
  let cb = Bytes.create 2 in
  Endian.set_u16 order cb ~pos:0 (List.length r.candidates);
  Buffer.add_bytes buf cb;
  List.iter
    (fun c ->
      if String.length c.host > 0xFF then
        invalid_arg "Fed_msg.encode_reply: host name too long";
      if c.rank >= no_rank then
        invalid_arg "Fed_msg.encode_reply: rank out of range";
      Buffer.add_char buf (Char.chr (String.length c.host));
      Buffer.add_string buf c.host;
      let e = Bytes.create 10 in
      Endian.set_u16 order e ~pos:0 (if c.rank < 0 then no_rank else c.rank);
      Endian.set_f64 order e ~pos:2 c.key;
      Buffer.add_bytes buf e)
    r.candidates;
  Buffer.contents buf

let decode_reply s =
  if String.length s < 15 then Error "fed result: truncated"
  else if not (String.equal (String.sub s 0 4) result_magic) then
    Error "fed result: bad magic"
  else begin
    let seq = Endian.get_u32 order s ~pos:4 in
    let flags = Endian.get_u16 order s ~pos:8 in
    if flags land lnot degraded_flag <> 0 then Error "fed result: unknown flags"
    else begin
      let degraded = flags land degraded_flag <> 0 in
      let generation = Endian.get_u32 order s ~pos:10 in
      let shard_len = Char.code s.[14] in
      if String.length s < 15 + shard_len + 2 then
        Error "fed result: truncated shard name"
      else begin
        let shard = String.sub s 15 shard_len in
        let count = Endian.get_u16 order s ~pos:(15 + shard_len) in
        let rec read pos n acc =
          if n = 0 then Ok (List.rev acc)
          else if pos >= String.length s then
            Error "fed result: truncated candidate list"
          else begin
            let len = Char.code s.[pos] in
            if pos + 1 + len + 10 > String.length s then
              Error "fed result: truncated candidate"
            else begin
              let host = String.sub s (pos + 1) len in
              let rank = Endian.get_u16 order s ~pos:(pos + 1 + len) in
              let key = Endian.get_f64 order s ~pos:(pos + 1 + len + 2) in
              read
                (pos + 1 + len + 10)
                (n - 1)
                ({ host; rank = (if rank = no_rank then -1 else rank); key }
                :: acc)
            end
          end
        in
        match read (15 + shard_len + 2) count [] with
        | Ok candidates -> Ok ({ seq; shard; generation; degraded; candidates } : reply)
        | Error _ as e -> e
      end
    end
  end
