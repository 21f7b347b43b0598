(* Explicit-endianness primitives for the binary record codecs.

   The thesis transmits records "in binary format", which "requires that
   the two machines ... have the same hardware architecture in order to
   avoid the Endian issues" (§3.5.1).  We implement both byte orders so
   that tests can demonstrate exactly that failure mode.

   Encoders write into a [Bytes.t] they own; decoders read the received
   [string] in place, so decoding never copies its input. *)

type order = Little | Big

let set_u16 order b ~pos v =
  match order with
  | Little -> Bytes.set_uint16_le b pos v
  | Big -> Bytes.set_uint16_be b pos v

let get_u16 order s ~pos =
  match order with
  | Little -> String.get_uint16_le s pos
  | Big -> String.get_uint16_be s pos

let set_u32 order b ~pos v =
  match order with
  | Little -> Bytes.set_int32_le b pos (Int32.of_int v)
  | Big -> Bytes.set_int32_be b pos (Int32.of_int v)

let get_u32 order s ~pos =
  let v =
    match order with
    | Little -> String.get_int32_le s pos
    | Big -> String.get_int32_be s pos
  in
  Int32.to_int v land 0xFFFFFFFF

let set_i64 order b ~pos v =
  match order with
  | Little -> Bytes.set_int64_le b pos v
  | Big -> Bytes.set_int64_be b pos v

let get_i64 order s ~pos =
  match order with
  | Little -> String.get_int64_le s pos
  | Big -> String.get_int64_be s pos

let set_f64 order b ~pos v =
  let bits = Int64.bits_of_float v in
  match order with
  | Little -> Bytes.set_int64_le b pos bits
  | Big -> Bytes.set_int64_be b pos bits

let get_f64 order s ~pos =
  let bits =
    match order with
    | Little -> String.get_int64_le s pos
    | Big -> String.get_int64_be s pos
  in
  Int64.float_of_bits bits

(* Fixed-width, NUL-padded character field (C char[n] semantics). *)
let set_string b ~pos ~width s =
  let n = min (String.length s) (width - 1) in
  Bytes.fill b pos width '\000';
  Bytes.blit_string s 0 b pos n

let get_string s ~pos ~width =
  if pos < 0 || width < 0 || pos > String.length s - width then
    invalid_arg "Endian.get_string";
  let rec field_length i =
    if i < width && s.[pos + i] <> '\000' then field_length (i + 1) else i
  in
  String.sub s pos (field_length 0)
