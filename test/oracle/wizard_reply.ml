(* Reference for Smart_proto.Wizard_msg.decode_reply: the decoder that
   accumulates the names in reverse and reverses the list at the end,
   with the error strings the production decoder must keep. *)

open Smart_proto

let degraded_flag = 0x8000

let rejected_flag = 0x4000

let order = Endian.Big

let decode s =
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
    | Ok servers ->
      Ok { Wizard_msg.seq; servers; degraded; rejected }
    | Error _ as e -> e
  end
