(** Summary statistics and least-squares fits for the measurement layer. *)

(** Arithmetic mean; raises [Invalid_argument] on an empty array. *)
val mean : float array -> float

(** Unbiased sample variance (0 for fewer than two samples). *)
val variance : float array -> float

val stddev : float array -> float

(** [(min, max)] of a non-empty array. *)
val min_max : float array -> float * float

(** Linear-interpolated percentile, [p] in [\[0, 100\]]. *)
val percentile : float array -> p:float -> float

val median : float array -> float

type linear_fit = { slope : float; intercept : float; r2 : float }

(** Ordinary least squares fit of [ys] against [xs]. *)
val linear_fit : xs:float array -> ys:float array -> linear_fit

type knee_fit = { break_x : float; below : linear_fit; above : linear_fit }

(** Two-segment piecewise-linear fit; the breakpoint minimising total
    squared error.  Detects the MTU knee of the paper's Formula (3.6). *)
val knee_fit : xs:float array -> ys:float array -> knee_fit

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
}

val summarize : float array -> summary
