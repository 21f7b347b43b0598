(* The transmitter->receiver TCP framing of §3.5.1: [type, size, data].
   Type and size travel first so the receiver can allocate before the
   binary payload arrives.  An incremental decoder handles arbitrary TCP
   segmentation.

   Trace-context carriage: a frame whose push was traced uses type code
   [type_code + traced_code_offset] and inserts 8 bytes of context
   (trace id, span id, both u32) between the header and the payload.
   [size] still counts payload bytes only.

   Integrity carriage: a frame encoded with [~crc:true] uses type code
   [+ crc_code_offset] and appends a CRC-32 trailer computed over every
   byte before it (header, context if any, payload).  The decoder
   verifies the trailer and treats a mismatch as corruption.

   Untraced, un-CRC'd frames encode exactly as the original format, so
   old streams keep decoding.

   Corruption never poisons a stream: the decoder skips forward one byte
   at a time until a plausible frame header (and, for CRC'd frames, a
   matching trailer) lines up again, counting the bytes it had to
   discard.  A CRC'd stream therefore survives arbitrary bit damage at
   the cost of the damaged frame(s) only. *)

type payload_type = Sys_db | Net_db | Sec_db | Digest_db | Sketch_db

let type_code = function
  | Sys_db -> 1
  | Net_db -> 2
  | Sec_db -> 3
  | Digest_db -> 4
  | Sketch_db -> 5

let type_of_code = function
  | 1 -> Some Sys_db
  | 2 -> Some Net_db
  | 3 -> Some Sec_db
  | 4 -> Some Digest_db
  | 5 -> Some Sketch_db
  | _ -> None

let traced_code_offset = 16

let crc_code_offset = 32

let header_size = 8

let ctx_size = 8

let crc_size = 4

let max_frame_size = 16 * 1024 * 1024

type frame = {
  payload_type : payload_type;
  data : string;
  trace : Smart_util.Tracelog.ctx;
      (* context of the transmitter push that sent this frame;
         [Tracelog.root] means untraced and adds no bytes *)
}

(* Why no frame starts at an offset: its bytes have not all arrived
   (wait for more), or they cannot start a frame (skip one byte).
   Constants, so rejecting an offset allocates nothing. *)
type error = Incomplete | Corrupt

let encode ?(crc = false) order { payload_type; data; trace } =
  let traced = not (Smart_util.Tracelog.is_root trace) in
  let code =
    type_code payload_type
    + (if traced then traced_code_offset else 0)
    + if crc then crc_code_offset else 0
  in
  let pre = header_size + if traced then ctx_size else 0 in
  let total = pre + String.length data + if crc then crc_size else 0 in
  let b = Bytes.create total in
  Endian.set_u32 order b ~pos:0 code;
  Endian.set_u32 order b ~pos:4 (String.length data);
  if traced then begin
    Endian.set_u32 order b ~pos:8 (trace.Smart_util.Tracelog.trace_id land 0xFFFFFFFF);
    Endian.set_u32 order b ~pos:12 (trace.Smart_util.Tracelog.span_id land 0xFFFFFFFF)
  end;
  Bytes.blit_string data 0 b pre (String.length data);
  if crc then begin
    let covered = Bytes.sub_string b 0 (pre + String.length data) in
    Endian.set_u32 order b
      ~pos:(pre + String.length data)
      (Smart_util.Crc32.string covered)
  end;
  Bytes.to_string b

(* Decode the single frame starting at [pos] of [s], whose bytes end at
   [stop]; on success also return how many bytes it occupied.  Never
   raises: an unknown code, a size beyond 16 MB or a CRC mismatch is
   [Corrupt]. *)
let decode_within order s ~pos ~stop =
  let len = stop - pos in
  if pos < 0 || len < header_size then Error Incomplete
  else begin
    let code = Endian.get_u32 order s ~pos in
    let size = Endian.get_u32 order s ~pos:(pos + 4) in
    let crc = code land crc_code_offset <> 0 in
    let traced = (code land lnot crc_code_offset) >= traced_code_offset in
    let base_code =
      code
      - (if traced then traced_code_offset else 0)
      - if crc then crc_code_offset else 0
    in
    match type_of_code base_code with
    | None -> Error Corrupt
    | Some _ when size > max_frame_size -> Error Corrupt
    | Some payload_type ->
      let pre = header_size + if traced then ctx_size else 0 in
      let total = pre + size + if crc then crc_size else 0 in
      if len < total then Error Incomplete
      else begin
        let ok () =
          let trace =
            if traced then
              {
                Smart_util.Tracelog.trace_id =
                  Endian.get_u32 order s ~pos:(pos + 8);
                span_id = Endian.get_u32 order s ~pos:(pos + 12);
              }
            else Smart_util.Tracelog.root
          in
          let data = String.sub s (pos + pre) size in
          Ok ({ payload_type; data; trace }, total)
        in
        if not crc then ok ()
        else begin
          let expected =
            Smart_util.Crc32.substring s ~pos ~len:(pre + size)
          in
          let got = Endian.get_u32 order s ~pos:(pos + pre + size) in
          if expected = got then ok () else Error Corrupt
        end
      end
  end

(* Incremental decoder: feed it chunks as they arrive; it emits complete
   frames in order and resynchronises over corrupt spans.

   The bytes it copies grow linearly with the bytes fed.  A chunk fed
   while nothing is pending is held as it is, so a chunk of whole
   frames is decoded in place, each payload copied out once.  Bytes
   that must wait for more (a frame still incomplete) move into a
   buffer that grows by doubling and is compacted only when what it
   has already handed out outweighs what it still holds.  Payloads are
   always fresh strings, never views of that buffer. *)
type decoder = {
  order : Endian.order;
  mutable held : string;  (* a chunk fed while nothing else was pending *)
  mutable buf : Bytes.t;  (* pending bytes are [buf.[start .. stop)] *)
  mutable start : int;
  mutable stop : int;
  mutable skipped_bytes : int;
  mutable resyncs : int;
  mutable in_resync : bool;  (* consecutive skipped bytes count as one event *)
}

let decoder order =
  {
    order;
    held = "";
    buf = Bytes.empty;
    start = 0;
    stop = 0;
    skipped_bytes = 0;
    resyncs = 0;
    in_resync = false;
  }

(* Append [s.[pos .. pos + len)] to the buffer, making room by
   compacting when the live bytes fill at most half of it, and by
   doubling otherwise. *)
let buffer dec s ~pos ~len =
  if dec.stop + len > Bytes.length dec.buf then begin
    let live = dec.stop - dec.start in
    let buf =
      if live + len <= Bytes.length dec.buf / 2 then dec.buf
      else Bytes.create (max (2 * Bytes.length dec.buf) (max 4096 (live + len)))
    in
    Bytes.blit dec.buf dec.start buf 0 live;
    dec.buf <- buf;
    dec.start <- 0;
    dec.stop <- live
  end;
  Bytes.blit_string s pos dec.buf dec.stop len;
  dec.stop <- dec.stop + len

let feed dec chunk =
  let len = String.length chunk in
  if len > 0 then
    if dec.stop = dec.start && String.length dec.held = 0 then dec.held <- chunk
    else begin
      if String.length dec.held > 0 then begin
        buffer dec dec.held ~pos:0 ~len:(String.length dec.held);
        dec.held <- ""
      end;
      buffer dec chunk ~pos:0 ~len
    end

let skipped_bytes dec = dec.skipped_bytes

let resyncs dec = dec.resyncs

(* Decode every complete frame of [s.[pos .. stop)]; returns where the
   unconsumed bytes start and the frames, newest first. *)
let scan dec s ~pos ~stop =
  let rec go pos acc =
    if stop - pos < header_size then (pos, acc)
    else
      match decode_within dec.order s ~pos ~stop with
      | Ok (frame, consumed) ->
        dec.in_resync <- false;
        go (pos + consumed) (frame :: acc)
      | Error Incomplete ->
        (* an incomplete tail: wait for more bytes.  If the claimed frame
           is corrupt the eventual CRC check (or a later header scan)
           will recover; a truncated header can't be judged yet. *)
        (pos, acc)
      | Error Corrupt ->
        (* corrupt span: drop one byte and look for the next header *)
        if not dec.in_resync then begin
          dec.in_resync <- true;
          dec.resyncs <- dec.resyncs + 1
        end;
        dec.skipped_bytes <- dec.skipped_bytes + 1;
        go (pos + 1) acc
  in
  go pos []

let frames dec =
  let acc =
    if String.length dec.held > 0 then begin
      let s = dec.held in
      let consumed, acc = scan dec s ~pos:0 ~stop:(String.length s) in
      dec.held <- "";
      if consumed < String.length s then
        buffer dec s ~pos:consumed ~len:(String.length s - consumed);
      acc
    end
    else begin
      (* the buffer is not written while the scan reads it *)
      let consumed, acc =
        scan dec (Bytes.unsafe_to_string dec.buf) ~pos:dec.start ~stop:dec.stop
      in
      dec.start <- consumed;
      if dec.start = dec.stop then begin
        (* all handed out: keep a small buffer for the next split frame,
           not one sized for the largest frame seen *)
        dec.start <- 0;
        dec.stop <- 0;
        if Bytes.length dec.buf > 65536 then dec.buf <- Bytes.empty
      end;
      acc
    end
  in
  List.rev acc
