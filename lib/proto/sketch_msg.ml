(* Sketch batch codec (Frame.Sketch_db payloads).

   Layout, all integers and floats in the frame's byte [order]:

     shard_len u16, shard bytes,
     count u16,
     count entries:
       name_len u16, name bytes,
       k u16, nlevels u16,
       err_weight i64, min f64, max f64, rng_state i64,
       nlevels levels: len u32, len x f64

   Decoding validates every length against the remaining bytes BEFORE
   allocating, caps levels and per-level sizes, and rebuilds through
   [Sketch.of_parts] so structural invariants (finite values inside
   [min, max], level cap, err_weight sign) are re-checked on the
   receiving side. *)

module Sketch = Smart_util.Sketch

type t = {
  shard : string;
  entries : (string * Sketch.t) list;
}

let max_level_items = 1 lsl 20

let fixed_entry_head = 2 + 2 + 8 + 8 + 8 + 8
(* k, nlevels, err_weight, min, max, rng_state — after the name *)

let encode order t =
  if String.length t.shard > 0xFFFF then
    invalid_arg "Sketch_msg.encode: shard name too long";
  if List.length t.entries > 0xFFFF then
    invalid_arg "Sketch_msg.encode: too many entries";
  let buf = Buffer.create 256 in
  let scratch = Bytes.create 8 in
  let u16 v = Endian.set_u16 order scratch ~pos:0 v;
    Buffer.add_subbytes buf scratch 0 2 in
  let u32 v = Endian.set_u32 order scratch ~pos:0 v;
    Buffer.add_subbytes buf scratch 0 4 in
  let i64 v = Endian.set_i64 order scratch ~pos:0 v;
    Buffer.add_subbytes buf scratch 0 8 in
  let f64 v = Endian.set_f64 order scratch ~pos:0 v;
    Buffer.add_subbytes buf scratch 0 8 in
  u16 (String.length t.shard);
  Buffer.add_string buf t.shard;
  u16 (List.length t.entries);
  List.iter
    (fun (name, s) ->
      if String.length name > 0xFFFF then
        invalid_arg "Sketch_msg.encode: metric name too long";
      let levels = Sketch.levels s in
      u16 (String.length name);
      Buffer.add_string buf name;
      u16 (Sketch.k s);
      u16 (List.length levels);
      i64 (Int64.of_int (Sketch.err_weight s));
      f64 (Sketch.min_value s);
      f64 (Sketch.max_value s);
      i64 (Sketch.rng_state s);
      List.iter
        (fun items ->
          if Array.length items > max_level_items then
            invalid_arg "Sketch_msg.encode: level too large";
          u32 (Array.length items);
          Array.iter f64 items)
        levels)
    t.entries;
  Buffer.contents buf

let decode order s =
  let len = String.length s in
  let pos = ref 0 in
  let error = ref None in
  let fail e = if Option.is_none !error then error := Some e in
  let need n =
    if Option.is_some !error || len - !pos < n then begin
      fail "sketch_msg: truncated";
      false
    end
    else true
  in
  let u16 () =
    if need 2 then begin
      let v = Endian.get_u16 order s ~pos:!pos in
      pos := !pos + 2;
      v
    end
    else 0
  in
  let u32 () =
    if need 4 then begin
      let v = Endian.get_u32 order s ~pos:!pos in
      pos := !pos + 4;
      v
    end
    else 0
  in
  let i64 () =
    if need 8 then begin
      let v = Endian.get_i64 order s ~pos:!pos in
      pos := !pos + 8;
      v
    end
    else 0L
  in
  let f64 () =
    if need 8 then begin
      let v = Endian.get_f64 order s ~pos:!pos in
      pos := !pos + 8;
      v
    end
    else 0.0
  in
  let str n =
    if need n then begin
      let v = String.sub s !pos n in
      pos := !pos + n;
      v
    end
    else ""
  in
  let shard = str (u16 ()) in
  let count = u16 () in
  let entries = ref [] in
  let i = ref 0 in
  while !i < count && Option.is_none !error do
    let name = str (u16 ()) in
    if need fixed_entry_head then begin
      let k = u16 () in
      let nlevels = u16 () in
      if nlevels > Sketch.max_levels then fail "sketch_msg: too many levels"
      else begin
        let err_weight = Int64.to_int (i64 ()) in
        let minv = f64 () in
        let maxv = f64 () in
        let rng_state = i64 () in
        let parts = ref [] in
        let l = ref 0 in
        while !l < nlevels && Option.is_none !error do
          let n = u32 () in
          if n > max_level_items then fail "sketch_msg: level too large"
          else if not (need (8 * n)) then ()
          else begin
            (* explicit loop: Array.init's evaluation order is
               unspecified and these reads advance [pos] *)
            let items = Array.make n 0.0 in
            for j = 0 to n - 1 do
              items.(j) <- f64 ()
            done;
            parts := items :: !parts
          end;
          incr l
        done;
        if Option.is_none !error then begin
          match
            Sketch.of_parts ~k ~err_weight ~min_value:minv ~max_value:maxv
              ~rng_state (List.rev !parts)
          with
          | Ok sk -> entries := (name, sk) :: !entries
          | Error e -> fail e
        end
      end
    end;
    incr i
  done;
  match !error with
  | Some e -> Error e
  | None ->
    if !pos <> len then Error "sketch_msg: trailing bytes"
    else Ok { shard; entries = List.rev !entries }
