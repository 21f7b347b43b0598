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

val type_code : payload_type -> int

(** A traced frame's wire type code is [type_code + traced_code_offset];
    it carries an 8-byte trace context between header and payload. *)
val traced_code_offset : int

val header_size : int

(** Bytes of the CRC trailer. *)
val crc_size : int

(** Upper bound on an accepted payload, guarding the receiver's
    pre-allocation against corrupt headers. *)
val max_frame_size : int

type frame = {
  payload_type : payload_type;
  data : string;
  trace : Smart_util.Tracelog.ctx;
      (** context of the push that produced this frame; [Tracelog.root]
          (untraced) encodes byte-identically to the pre-trace format *)
}

(** Why a stretch of bytes does not decode as a frame. *)
type error =
  | Truncated of { need : int; have : int }
      (** fewer bytes than the frame claims; wait for more *)
  | Unknown_code of int  (** type code matches no known frame kind *)
  | Oversized of int  (** size prefix beyond {!max_frame_size} *)
  | Crc_mismatch of { expected : int; got : int }
      (** the trailer disagrees with the received bytes *)

val error_to_string : error -> string

(** [encode ?crc order frame] serialises one frame; [~crc:true] appends
    the integrity trailer (default off, preserving the legacy bytes). *)
val encode : ?crc:bool -> Endian.order -> frame -> string

(** Decode the single frame starting at [pos] (default 0); returns the
    frame and the bytes it occupied.  Never raises — malformed and
    truncated input comes back as a typed {!error}. *)
val decode_one :
  Endian.order -> ?pos:int -> string -> (frame * int, error) result

(** An incremental stream decoder.  The bytes it copies grow linearly
    with the bytes fed, however the stream is split: a chunk of whole
    frames is decoded where it lies, and only an incomplete frame's
    bytes are buffered.  Every payload it returns is a fresh string. *)
type decoder

val decoder : Endian.order -> decoder

(** Append received bytes. *)
val feed : decoder -> string -> unit

(** Pop all complete frames accumulated so far.  Corruption (unknown
    code, impossible size, CRC mismatch) never poisons the stream: the
    decoder skips forward byte-by-byte until a valid frame lines up
    again, recording the damage in {!skipped_bytes} / {!resyncs}. *)
val frames : decoder -> frame list

(** Total bytes discarded while hunting for a frame boundary. *)
val skipped_bytes : decoder -> int

(** Corruption episodes survived (consecutive skipped bytes count
    once). *)
val resyncs : decoder -> int

(** The most recent corruption seen, if any. *)
val last_error : decoder -> error option

(** Bytes buffered awaiting a complete frame. *)
val pending_bytes : decoder -> int
