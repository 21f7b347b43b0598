(** The matrix-multiplication experiment (§5.2): smart vs. random worker
    selection under background SuperPI load. *)

type comparison = {
  title : string;
  matrix : string;
  requirement : string;
  workloads : string list;  (** hosts running SuperPI during the run *)
  random_servers : string list;
  smart_servers : string list;
  random_time : float;
  smart_time : float;
  paper_random : float;
  paper_smart : float;
}

(** Fig 5.2: single-machine benchmark rows. *)
type benchmark_row = { host : string; cpu : string; seconds : float }

val benchmark : ?n:int -> unit -> benchmark_row list

val print_benchmark : benchmark_row list -> unit

(** Tables 5.3-5.6, in that order: each thesis scenario (pool, SuperPI
    workloads) run with the paper's random server set and the smart
    one. *)
val run_all : unit -> comparison list

val print_comparison : comparison -> unit
