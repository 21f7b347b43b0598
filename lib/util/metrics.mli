(** Self-instrumentation registry for the monitoring system itself:
    named counters, gauges and histograms whose quantiles come from the
    quantile {!Sketch} the federation merges.

    Every sans-IO component registers its instruments against a registry
    handed in at creation time, so the same instrumentation is read
    deterministically by the simulation driver and scraped over UDP by
    the realnet daemons (see OBSERVABILITY.md for the full namespace).

    Registration is get-or-create: asking twice for the same name
    returns the same instrument, which is how components deployed many
    times against one registry (e.g. every probe of a simulated
    cluster) aggregate into a single metric. *)

type t

(** A fresh, empty registry. *)
val create : unit -> t

(** Monotonically increasing event count. *)
module Counter : sig
  type t

  (** [incr ?by c] adds [by] (default 1, must be [>= 0]) to the count. *)
  val incr : ?by:int -> t -> unit

  val value : t -> int
end

(** A value that can move both ways (queue depths, table sizes). *)
module Gauge : sig
  type t

  val set : t -> float -> unit

  val add : t -> float -> unit

  val value : t -> float
end

(** Distribution tracker: a running sum plus one {!Sketch} (default
    [k = 256], seeded from the metric name), which supplies the count,
    the extremes and every quantile.

    {b Semantics.}  {!Histogram.quantile}[ h p] is the nearest rank:
    with [n] observations sorted as [s], the answer is
    [s.(max 0 (ceil (p *. n) - 1))].  It is exact for the first 255
    observations, until the sketch first compacts; after that it is a
    retained observed value whose rank lies within the sketch's
    {!Sketch.err_weight} of the target.  There is no interpolation, so
    a quantile is always a value that was observed.

    {b Non-finite input.}  [nan], [infinity] and [neg_infinity] are
    ignored: count, sum, extremes and quantiles do not move.

    {b Memory.}  O(k·log2(n/k)) floats after [n] observations: 14
    levels and about 28 KB in all after 1.5M. *)
module Histogram : sig
  type t

  (** Fold one observation in; non-finite values are ignored. *)
  val observe : t -> float -> unit

  val count : t -> int

  (** Exact sum of the finite observations. *)
  val sum : t -> float

  (** Nearest-rank estimate for any [p] in [[0, 1]] (see above);
      [Float.nan] while empty.  Raises [Invalid_argument] for [p]
      outside [[0, 1]]. *)
  val quantile : t -> float -> float
end

(** Everything a histogram exposes, in one read. *)
type histogram_summary = {
  count : int;
  sum : float;
  min : float;  (** [Float.nan] while empty *)
  max : float;  (** [Float.nan] while empty *)
  p50 : float;
  p95 : float;
  p99 : float;
}

val histogram_summary : Histogram.t -> histogram_summary

(** One metric's current reading. *)
type value =
  | Counter of int
  | Gauge of float
  | Histogram of histogram_summary

type sample = { name : string; help : string; value : value }

(** [counter t name] returns the counter registered under [name],
    creating it on first use.  [help] is kept from the first
    registration.  Raises [Invalid_argument] if [name] is already
    registered as a different kind. *)
val counter : t -> ?help:string -> string -> Counter.t

val gauge : t -> ?help:string -> string -> Gauge.t

(** [histogram t name]: the histogram registered under [name],
    created on first use with its sketch's PRNG seeded from the CRC-32
    of [name], so same-seed runs stay byte-identical whatever the
    registration order. *)
val histogram : t -> ?help:string -> string -> Histogram.t

(** Current readings of every registered metric, sorted by name — the
    stable view tests and experiments assert on. *)
val snapshot : t -> sample list

(** Reading of one metric by name. *)
val find : t -> string -> value option

(** Convenience for tests: the counter's value, or 0 when [name] is
    absent or not a counter. *)
val counter_value : t -> string -> int

(** Gauge reading, or 0 when absent or not a gauge. *)
val gauge_value : t -> string -> float

(** One line per metric:
    [<name> counter <n>],
    [<name> gauge <v>], or
    [<name> histogram count=.. sum=.. min=.. p50=.. p95=.. p99=.. max=..]. *)
val to_text : t -> string

(** The same readings as a JSON object keyed by metric name; histogram
    quantiles of an empty histogram render as [null]. *)
val to_json : t -> string

(** The string escaping {!to_json} (and {!Tracelog.to_chrome_json})
    applies to names — an alias of the shared {!Json.escape}, kept here
    for API stability. *)
val json_escape : string -> string
