(** Substrate-neutral span/event recorder — the trace plane.

    Where {!Metrics} answers "how much / how fast on aggregate", a
    tracelog answers "what did {e this} request touch, in what order,
    and where did the time go": components record named spans with
    parent links, and a trace context carried through the message plane
    ties the spans of one client request (or one status report) into a
    single tree across components and machines.

    The recorder is a bounded ring, like {!Smart_sim.Trace}: old spans
    fall off, recording never allocates unboundedly, and a realnet
    daemon can keep one as a flight recorder answered over UDP.  The
    clock is injected (the engine's virtual clock in simulation,
    [Unix.gettimeofday] in the realnet daemons) so recording stays
    deterministic under the determinism lint — this module never reads
    real time itself.

    The ring's span records are preallocated at {!create} and reused in
    place, so recording on an enabled recorder allocates nothing.  The
    price is that a span handle is the ring slot itself: if [capacity]
    further spans open between a {!start} and its {!finish}, the stamp
    lands on whichever span now occupies the slot.  Close spans promptly
    relative to the ring depth (all in-tree drivers do).

    Recording through a disabled recorder costs one branch and no
    allocation; {!disabled} is the shared always-off recorder components
    default to. *)

type t

(** The propagated half of a span: enough to parent a remote child.
    [trace_id] groups every span of one causal tree; [span_id] names the
    parent span within it. *)
type ctx = { trace_id : int; span_id : int }

(** The empty context (0, 0): "no caller".  Spans started under [root]
    open a fresh trace. *)
val root : ctx

val is_root : ctx -> bool

(** Handle of an open span; pass it back to {!finish}. *)
type span

(** The inert span handle returned by a disabled recorder; finishing it
    is a no-op and its context is {!root}. *)
val none : span

(** [create ()] builds a recorder retaining the most recent [capacity]
    entries (default 4096).  [clock] supplies span timestamps (default: a
    constant 0 — inject the engine's virtual clock or the daemon's wall
    clock). *)
val create : ?capacity:int -> ?clock:(unit -> float) -> unit -> t

(** The shared always-disabled recorder — the default [?trace] argument
    of every component. *)
val disabled : t

val enabled : t -> bool

(** [start t ?parent ?at name] opens a span.  Under a [parent] the span
    joins the parent's trace; without one (or under {!root}) it opens a
    fresh trace whose id is the span's own id.  [at] supplies the start
    timestamp, defaulting to one clock read — callers recording several
    spans at one instant share a single read.  Returns {!none} when the
    recorder is disabled. *)
val start : t -> ?parent:ctx -> ?at:float -> string -> span

(** Close the span, stamping its duration ([at] defaulting to a clock
    read, as in {!start}).  No-op on {!none}. *)
val finish : t -> ?at:float -> span -> unit

(** Record a zero-duration point event at one clock read. *)
val instant : t -> ?parent:ctx -> string -> unit

(** The span's propagable context ({!root} for {!none}). *)
val ctx_of : span -> ctx

type kind = Span | Instant

type entry = {
  name : string;
  kind : kind;
  trace_id : int;
  span_id : int;
  parent_id : int;  (** 0 when the span opened its own trace *)
  start_time : float;
  duration : float;  (** [Float.nan] while the span is still open *)
}

(** Retained entries, oldest first. *)
val entries : t -> entry list

(** Entries ever recorded, including those the ring has dropped. *)
val total_recorded : t -> int

(** One line per entry:
    [<start> <kind> trace=<t> span=<s> parent=<p> dur=<d> <name>]. *)
val to_text : t -> string

(** Chrome trace-event JSON (load in Perfetto / chrome://tracing).
    Spans become ["ph":"X"] complete events (µs timestamps, one pid per
    component — the dot-prefix of the span name — and tid = trace id);
    open spans render with duration 0.  [instants] lets a driver merge
    foreign [(time, category, message)] point events (e.g.
    {!Smart_sim.Trace} packet events) into the same timeline as
    ["ph":"i"] instants.  Output is deterministic: same recorded
    entries, same bytes. *)
val to_chrome_json : ?instants:(float * string * string) list -> t -> string

(** Indented rendering of one trace's span tree (children ordered by
    start time, then id) — the demo's stdout view. *)
val render_tree : t -> trace_id:int -> string
