(** The massive-download experiment (§5.3): smart server sets vs. random
    ones on the shaped two-group testbed. *)

(** One shaper calibration point: requested vs. achieved rate. *)
type calibration_sample = {
  data_kb : int;
  blk_kb : int;
  set_kBps : float;
  achieved_kBps : float;
}

val calibration : ?samples:int -> unit -> calibration_sample list

val print_calibration : calibration_sample list -> unit

(** One download run: the server set used and the rate it achieved. *)
type run_row = {
  label : string;
  servers : string list;
  kBps : float;
  paper_kBps : float option;
}

type table = {
  title : string;
  group1_mbps : float;
  group2_mbps : float;
  requirement : string;
  rows : run_row list;  (** random sets then the smart set, smart last *)
}

(** Tables 5.7-5.9, in that order: each thesis shaping scenario run with
    its random server sets and the smart one ([data_kb] transferred in
    100 KB blocks per run). *)
val run_all : ?data_kb:int -> unit -> table list

val print_table : table -> unit
