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

type error =
  | Truncated of { need : int; have : int }
  | Unknown_code of int
  | Oversized of int
  | Crc_mismatch of { expected : int; got : int }

let pp_error ppf = function
  | Truncated { need; have } ->
    Fmt.pf ppf "frame: truncated (need %d bytes, have %d)" need have
  | Unknown_code code -> Fmt.pf ppf "frame: unknown type code %d" code
  | Oversized size -> Fmt.pf ppf "frame: oversized payload (%d bytes)" size
  | Crc_mismatch { expected; got } ->
    Fmt.pf ppf "frame: CRC mismatch (expected %08x, got %08x)" expected got

let error_to_string e = Fmt.str "%a" pp_error e

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

(* Decode the single frame starting at [pos]; on success also return how
   many bytes it occupied.  Never raises: malformed input comes back as a
   typed {!error}. *)
let decode_one order ?(pos = 0) s =
  let len = String.length s - pos in
  if pos < 0 || pos > String.length s then
    Error (Truncated { need = header_size; have = 0 })
  else if len < header_size then
    Error (Truncated { need = header_size; have = len })
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
    | None -> Error (Unknown_code code)
    | Some _ when size > max_frame_size -> Error (Oversized size)
    | Some payload_type ->
      let pre = header_size + if traced then ctx_size else 0 in
      let total = pre + size + if crc then crc_size else 0 in
      if len < total then Error (Truncated { need = total; have = len })
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
          if expected = got then ok ()
          else Error (Crc_mismatch { expected; got })
        end
      end
  end

(* Incremental decoder: feed it chunks as they arrive; it emits complete
   frames in order and resynchronises over corrupt spans. *)
type decoder = {
  order : Endian.order;
  mutable pending : string;  (* bytes received but not yet consumed *)
  mutable skipped_bytes : int;
  mutable resyncs : int;
  mutable in_resync : bool;  (* consecutive skipped bytes count as one event *)
  mutable last_error : error option;
}

let decoder order =
  {
    order;
    pending = "";
    skipped_bytes = 0;
    resyncs = 0;
    in_resync = false;
    last_error = None;
  }

let feed dec chunk =
  if String.length chunk > 0 then
    dec.pending <-
      (if String.equal dec.pending "" then chunk else dec.pending ^ chunk)

let skipped_bytes dec = dec.skipped_bytes

let resyncs dec = dec.resyncs

let last_error dec = dec.last_error

let pending_bytes dec = String.length dec.pending

let frames dec =
  let s = dec.pending in
  let len = String.length s in
  let rec scan pos acc =
    if len - pos < header_size then (pos, acc)
    else
      match decode_one dec.order ~pos s with
      | Ok (frame, consumed) ->
        dec.in_resync <- false;
        scan (pos + consumed) (frame :: acc)
      | Error (Truncated _) ->
        (* an incomplete tail: wait for more bytes.  If the claimed frame
           is corrupt the eventual CRC check (or a later header scan)
           will recover; a truncated header can't be judged yet. *)
        (pos, acc)
      | Error e ->
        (* corrupt span: drop one byte and look for the next header *)
        dec.last_error <- Some e;
        if not dec.in_resync then begin
          dec.in_resync <- true;
          dec.resyncs <- dec.resyncs + 1
        end;
        dec.skipped_bytes <- dec.skipped_bytes + 1;
        scan (pos + 1) acc
  in
  let consumed, acc = scan 0 [] in
  dec.pending <- String.sub s consumed (len - consumed);
  List.rev acc
