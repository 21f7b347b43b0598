(** The massive-download experiment (§5.3): smart server sets vs. random
    ones on the shaped two-group testbed. *)

(** The two shaped host groups of the massive-download testbed. *)
val group1 : string list

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

(** One shaping scenario from the thesis, with its paper numbers. *)
type setup = {
  title : string;
  g1_mbps : float;
  g2_mbps : float;
  wanted : int;
  requirement : string;
  random_sets : (string * string list * float option) list;
  paper_smart : float option;
}

val setups : setup list

val run_setup : ?data_kb:int -> ?blk_kb:int -> setup -> table

val run_all : ?data_kb:int -> ?blk_kb:int -> unit -> table list

val print_table : table -> unit
