(** Reference for {!Smart_proto.Wizard_msg.decode_reply}: the
    list-reversing decoder, whose [Ok] replies and [Error] strings the
    production decoder must reproduce on any bytes. *)

val decode : string -> (Smart_proto.Wizard_msg.reply, string) result
