(** [type, size, data] TCP framing between transmitter and receiver
    (§3.5.1), with an incremental decoder for stream reassembly.

    The wire type code carries two optional flags: [+
    traced_code_offset] for an 8-byte trace context between header and
    payload, and [+ crc_code_offset] for a CRC-32 trailer covering every
    preceding byte of the frame.  A frame with neither flag encodes
    byte-identically to the original format. *)

(** [Digest_db] (type code 4) carries a {!Digest} — the federation's
    per-shard summary shipped up the aggregation tree instead of whole
    databases; [Sketch_db] (type code 5) carries a {!Sketch_msg} batch
    of quantile sketches riding the same uplink; the first
    three codes are the original §3.5.1 payloads. *)
type payload_type = Sys_db | Net_db | Sec_db | Digest_db | Sketch_db

type frame = {
  payload_type : payload_type;
  data : string;
  trace : Smart_util.Tracelog.ctx;
      (** context of the push that produced this frame; [Tracelog.root]
          (untraced) encodes byte-identically to the pre-trace format *)
}

(** [encode ?crc order frame] serialises one frame; [~crc:true] appends
    the integrity trailer (default off, preserving the legacy bytes). *)
val encode : ?crc:bool -> Endian.order -> frame -> string

(** An incremental stream decoder.  The bytes it copies grow linearly
    with the bytes fed, however the stream is split: a chunk of whole
    frames is decoded where it lies, and only an incomplete frame's
    bytes are buffered.  Every payload it returns is a fresh string. *)
type decoder

val decoder : Endian.order -> decoder

(** Append received bytes. *)
val feed : decoder -> string -> unit

(** Pop all complete frames accumulated so far; never raises.  A frame
    still incomplete waits for more bytes.  Corruption (unknown code, a
    size beyond 16 MB, CRC mismatch) never poisons the stream: the
    decoder skips forward byte-by-byte until a valid frame lines up
    again, recording the damage in {!skipped_bytes} / {!resyncs}. *)
val frames : decoder -> frame list

(** Total bytes discarded while hunting for a frame boundary. *)
val skipped_bytes : decoder -> int

(** Corruption episodes survived (consecutive skipped bytes count
    once). *)
val resyncs : decoder -> int
