(** Binary status records of Fig 3.10 with explicit byte order.

    Decoding with the wrong [Endian.order] produces garbage — the
    same-architecture requirement of §3.5.1. *)

type sys_record = {
  report : Report.t;
  updated_at : float;  (** monitor clock at last refresh *)
}

(** Encoded size of a system record in bytes. *)
val sys_record_size : int

val encode_sys : Endian.order -> sys_record -> string

(** {2 System records held as their bytes}

    The wizard-side mirror keeps each pushed system record as a
    reference to its bytes in the frame payload and reads what it needs
    in place; only a reader asking for the whole record decodes it. *)

(** The {!sys_record_size} bytes at [pos] of [data], in byte order
    [order]. *)
type sys_wire = private { data : string; pos : int; order : Endian.order }

(** [sys_wire order data ~pos] refers to the record at [pos] of [data];
    raises [Invalid_argument] when it does not fit. *)
val sys_wire : Endian.order -> string -> pos:int -> sys_wire

(** The whole record: [decode_wire (sys_wire order (encode_sys order r)
    ~pos:0)] is [r] when its host and address fit their fields (39 and
    15 bytes, no NUL). *)
val decode_wire : sys_wire -> sys_record

(** Host name of the record at [pos] of [data]. *)
val wire_host : string -> pos:int -> string

(** Does the record at [pos] of [data] name [host]?  Compared in place,
    without allocating; [wire_host_is data ~pos h] is
    [String.equal (wire_host data ~pos) h] for any [h] holding no NUL. *)
val wire_host_is : string -> pos:int -> string -> bool

val wire_ip : sys_wire -> string

(** {!wire_ip} compared in place, as {!wire_host_is}. *)
val wire_ip_is : sys_wire -> string -> bool

val wire_updated_at : sys_wire -> float

(** Write the record's {!Report.field_count} numeric fields, in
    {!Report.field} order, into [values.(0)] onward, read straight from
    the bytes without allocating. *)
val wire_values : sys_wire -> float array -> unit

type net_entry = {
  peer : string;
  delay : float;      (** seconds *)
  bandwidth : float;  (** bytes per second *)
  measured_at : float;
}

type net_record = { monitor : string; entries : net_entry list }

val encode_net : Endian.order -> net_record -> string

val decode_net : Endian.order -> string -> (net_record, string) result

type sec_entry = { host : string; level : int }

type sec_record = { entries : sec_entry list }

val encode_sec : Endian.order -> sec_record -> string

val decode_sec : Endian.order -> string -> (sec_record, string) result

(** Parse the dummy security log ("host level" lines, '#' comments). *)
val parse_security_log : string -> (sec_record, string) result
