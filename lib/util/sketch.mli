(** Deterministic quantile sketch with an exact merge (MRL/KLL-style
    compacting buffers).

    The repo's one quantile estimator: every {!Metrics.Histogram} is a
    running sum over one of these, and a federated deployment answers
    "what is the deployment-wide p99?" by merging them.  It keeps a
    bounded number of retained observations organised in levels, where
    level [l] holds items that each stand for [2^l] original
    observations, and {!merge} is an exact commutative monoid over
    sketches.

    {2 Structure}

    Level 0 is a plain buffer of raw observations.  When a level fills
    past its capacity [k] it is {e compacted}: the buffer is sorted, a
    starting offset in [{0, 1}] is drawn from the sketch's injected
    PRNG, every other element of the even prefix is promoted to the
    next level (doubling its weight) and at most one leftover item
    stays behind.  Memory on the observe path is therefore bounded by
    [k * levels] with [levels <= log2 (n / k) + 1].

    {2 Merge is an exact monoid}

    [merge a b] is the levelwise sorted multiset union of the retained
    items — no compaction happens during a merge, and the PRNG states
    combine by XOR — so merge is {e exactly} associative and
    commutative, and a fresh sketch is an identity, up to observable
    state (PRNG state excluded).  The price is that a merge
    is size-additive: a root merging [s] shards holds at most [s * k *
    levels] items.  Subsequent {!observe} calls re-compact through the
    normal cascade.

    {2 Error bound}

    Every compaction at level [l] perturbs the rank of any value by at
    most [2^l] (the standard compactor argument: in a sorted buffer at
    most one promoted pair straddles a given threshold).  The sketch
    accumulates these worst cases in {!err_weight}; merge adds them.
    {!quantile}[ t p] returns a retained {e observed} value whose true
    rank in the observed multiset lies within [err_weight t] of
    [ceil (p * n)] — the self-documented bound that the federation
    acceptance test pins.

    Determinism: the only stochastic choice (compaction offset) draws
    from the injected PRNG, so same-seed runs are byte-identical.  Wall
    clocks are never consulted. *)

type t

(** [create ?k ?rng ()] returns an empty sketch.  [k] is the per-level
    compaction capacity (default 256); it must be even and [>= 8].
    [rng] seeds the tie-breaking PRNG (default seed 0); pass a
    deterministically derived generator to keep runs reproducible.
    Raises [Invalid_argument] on a bad [k]. *)
val create : ?k:int -> ?rng:Prng.t -> unit -> t

(** Independent deep copy (including PRNG state). *)
val copy : t -> t

(** [observe t v] folds one observation in.  Amortised O(log k).
    Raises [Invalid_argument] if [v] is not finite. *)
val observe : t -> float -> unit

(** Exact commutative-monoid union: a fresh sketch holding the retained
    items of both inputs (levelwise, re-sorted), summed counts and
    error weights, exact min/max, and XOR-combined PRNG state.  Inputs
    are not mutated.  Raises [Invalid_argument] when both inputs are
    non-empty with different [k]; an empty side adopts the other's
    [k]. *)
val merge : t -> t -> t

(** Total observed weight: the number of {!observe} calls folded in,
    across all merged inputs. *)
val count : t -> int

(** Exact running extremes; [Float.nan] while empty. *)
val min_value : t -> float

val max_value : t -> float

(** Worst-case rank perturbation accumulated by compactions (see the
    module doc); 0 until the first compaction. *)
val err_weight : t -> int

(** [quantile t p] for [p] in [[0, 1]]: a retained observed value whose
    true rank is within [err_weight t] of [ceil (p *. count t)]
    (nearest-rank semantics on the weighted retained items).
    [Float.nan] while empty; raises [Invalid_argument] outside
    [[0, 1]]. *)
val quantile : t -> float -> float

(** {2 Structural access (wire codecs, tests)} *)

(** Per-level capacity. *)
val k : t -> int

(** Retained items per level, level 0 first, trailing empty levels
    trimmed.  The arrays are copies, in storage order (level buffers
    are only guaranteed sorted after a merge). *)
val levels : t -> float array list

(** Current PRNG state, for exact wire round-trips. *)
val rng_state : t -> int64

(** Rebuild a sketch from its structural parts (the decode side of a
    wire codec).  Validates: [k] even and [>= 8], [err_weight >= 0], at
    most {!max_levels} levels, every retained value finite and inside
    [[min_value, max_value]] when non-empty.  The count is derived as
    the weighted sum of level sizes.  Returns [Error _] instead of
    raising so adversarial input is safe. *)
val of_parts :
  k:int ->
  err_weight:int ->
  min_value:float ->
  max_value:float ->
  rng_state:int64 ->
  float array list ->
  (t, string) result

(** Hard cap on the number of levels accepted by {!of_parts} (48 —
    unreachable by honest sketches, which need [2^48] observations). *)
val max_levels : int
