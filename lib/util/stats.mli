(** Summary statistics and least-squares fits for the measurement layer. *)

(** Arithmetic mean; raises [Invalid_argument] on an empty array. *)
val mean : float array -> float

(** Unbiased sample standard deviation (0 for fewer than two samples). *)
val stddev : float array -> float

(** [(min, max)] of a non-empty array. *)
val min_max : float array -> float * float

(** Linear-interpolated 50th percentile. *)
val median : float array -> float

(** An ordinary least squares fit. *)
type linear_fit = { slope : float; intercept : float; r2 : float }

type knee_fit = { break_x : float; below : linear_fit; above : linear_fit }

(** Two-segment piecewise-linear fit; the breakpoint minimising total
    squared error.  Detects the MTU knee of the paper's Formula (3.6). *)
val knee_fit : xs:float array -> ys:float array -> knee_fit
