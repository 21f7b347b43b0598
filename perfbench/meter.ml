(* Measurement plumbing shared by every workload: a nanosecond monotonic
   clock, latency sample buffers with exact percentiles, and the
   in-memory span recorder of the traced run.

   Sample and span buffers are Bigarrays: they live outside the OCaml
   heap, are allocated before the allocation and heap baselines are
   taken, and recording into them allocates nothing. *)

open Bigarray

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* The clock handed to components that meter their own latency (the
   in-process wizard and federation root), in seconds like the
   realnet daemon's wall clock. *)
let clock_s () = float_of_int (now_ns ()) *. 1e-9

let minor_words () = int_of_float (Gc.minor_words ())

type ints = (int, int_elt, c_layout) Array1.t

let ints n : ints =
  let a = Array1.create Int C_layout (max 1 n) in
  Array1.fill a 0;
  a

(* ------------------------------------------------------------------ *)
(* Latency samples                                                      *)
(* ------------------------------------------------------------------ *)

(* Nanoseconds as int32: half the memory, and no single request of any
   workload comes near the 2.1 s ceiling (a longer one is clamped). *)
type samples = {
  buf : (int32, int32_elt, c_layout) Array1.t;
  mutable n : int;
}

let samples cap =
  let buf = Array1.create Int32 C_layout (max 1 cap) in
  Array1.fill buf 0l;
  { buf; n = 0 }

let capacity s = Array1.dim s.buf

let record s v =
  Array1.unsafe_set s.buf s.n (Int32.of_int (min v 0x7FFFFFFF));
  s.n <- s.n + 1

let sample s i = Int32.to_int (Array1.unsafe_get s.buf i)

let sorted s =
  let a = Array.init s.n (sample s) in
  Array.sort Int.compare a;
  a

(* Nearest-rank percentile over every sample (no interpolation, no
   estimator): the value at rank ceil(q n). *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0
  else sorted.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let mean s =
  if s.n = 0 then 0.0
  else begin
    let total = ref 0 in
    for i = 0 to s.n - 1 do
      total := !total + sample s i
    done;
    float_of_int !total /. float_of_int s.n
  end

(* ------------------------------------------------------------------ *)
(* Spans                                                                *)
(* ------------------------------------------------------------------ *)

(* Layers the bench attributes time to.  Each span is one timed call
   into a public function of the named module (or a bench-owned
   wrapper: [request], [push], [check]). *)
type layer =
  | Request  (* one closed-loop request, bench-owned root *)
  | Push  (* one status push, bench-owned root *)
  | Probe  (* a probe-pass call group, bench-owned root *)
  | Check  (* client side: decode the reply, compare with the oracle *)
  | Handle_request  (* Wizard.handle_request, its layer calls replayed *)
  | Handle_bare  (* Wizard.handle_request, no replays *)
  | Subquery  (* Wizard.handle_subquery *)
  | Decode_request  (* Wizard_msg.decode_request *)
  | Encode_reply  (* Wizard_msg.encode_reply *)
  | Cache_key  (* Requirement.cache_key *)
  | Compile  (* Requirement.compile_fast *)
  | Columns  (* Status_db.columns that rebuilt or refreshed *)
  | Select_columns  (* Selection.select_columns *)
  | Select_scored  (* Selection.select_scored *)
  | Merge  (* Selection.merge_candidates *)
  | Receiver_push  (* Receiver.handle_stream of one group push *)
  | Fed_request  (* Fed_root.handle_request *)
  | Fed_reply  (* Fed_root.handle_reply *)
  | Client_call  (* Client_io.request_servers *)
  | Socket_setup  (* Udp_io.bind_port 0 + Udp_io.stop *)
  | Check_reply  (* Client.check_reply *)

let layers =
  [|
    Request; Push; Probe; Check; Handle_request; Subquery; Decode_request;
    Encode_reply; Cache_key; Compile; Columns; Select_columns; Select_scored;
    Merge; Receiver_push; Fed_request; Fed_reply; Client_call; Socket_setup;
    Check_reply; Handle_bare;
  |]

(* Position in [layers]; constant constructors compile to their index. *)
let layer_id : layer -> int = function
  | Request -> 0 | Push -> 1 | Probe -> 2 | Check -> 3 | Handle_request -> 4
  | Subquery -> 5 | Decode_request -> 6 | Encode_reply -> 7 | Cache_key -> 8
  | Compile -> 9 | Columns -> 10 | Select_columns -> 11 | Select_scored -> 12
  | Merge -> 13 | Receiver_push -> 14 | Fed_request -> 15 | Fed_reply -> 16
  | Client_call -> 17 | Socket_setup -> 18 | Check_reply -> 19
  | Handle_bare -> 20

let layer_name = function
  | Request -> "request"
  | Push -> "push"
  | Probe -> "probe"
  | Check -> "bench.check"
  | Handle_request -> "wizard.handle_request"
  | Handle_bare -> "wizard.handle_request/bare"
  | Subquery -> "wizard.handle_subquery"
  | Decode_request -> "wizard_msg.decode_request"
  | Encode_reply -> "wizard_msg.encode_reply"
  | Cache_key -> "requirement.cache_key"
  | Compile -> "requirement.compile_fast"
  | Columns -> "status_db.columns"
  | Select_columns -> "selection.select_columns"
  | Select_scored -> "selection.select_scored"
  | Merge -> "selection.merge_candidates"
  | Receiver_push -> "receiver.handle_stream"
  | Fed_request -> "fed_root.handle_request"
  | Fed_reply -> "fed_root.handle_reply"
  | Client_call -> "client_io.request_servers"
  | Socket_setup -> "udp_io.bind_port+stop"
  | Check_reply -> "client.check_reply"

(* One row per span.  [time] holds the start clock while the span is
   open and its duration once finished; [words] likewise for the minor
   words counter.  [parent] is the row of the enclosing span, or -1. *)
type spans = {
  layer : ints;
  parent : ints;
  req : ints;
  time : ints;
  words : ints;
  mutable used : int;
}

let spans cap =
  {
    layer = ints cap;
    parent = ints cap;
    req = ints cap;
    time = ints cap;
    words = ints cap;
    used = 0;
  }

let span_capacity sp = Array1.dim sp.layer

let room sp k = sp.used + k <= span_capacity sp

let start sp ~req ~parent layer =
  let i = sp.used in
  sp.used <- i + 1;
  Array1.unsafe_set sp.layer i (layer_id layer);
  Array1.unsafe_set sp.parent i parent;
  Array1.unsafe_set sp.req i req;
  Array1.unsafe_set sp.time i (now_ns ());
  Array1.unsafe_set sp.words i (minor_words ());
  i

let finish sp i =
  let w = minor_words () in
  let t = now_ns () in
  Array1.unsafe_set sp.words i (w - Array1.unsafe_get sp.words i);
  Array1.unsafe_set sp.time i (t - Array1.unsafe_get sp.time i)

(* Time one call as a span. *)
let timed sp ~req ~parent layer f =
  let i = start sp ~req ~parent layer in
  let r = f () in
  finish sp i;
  r

(* Self time and self words: a span's own figure minus what its child
   spans account for.  Layer calls replayed after the call they were
   attributed to are children of that call, so the parent keeps only
   the work no layer span claims. *)
let self_figures sp =
  let self_t = Array.init sp.used (fun i -> sp.time.{i}) in
  let self_w = Array.init sp.used (fun i -> sp.words.{i}) in
  for i = 0 to sp.used - 1 do
    let p = sp.parent.{i} in
    if p >= 0 then begin
      self_t.(p) <- self_t.(p) - sp.time.{i};
      self_w.(p) <- self_w.(p) - sp.words.{i}
    end
  done;
  (self_t, self_w)

type layer_stats = {
  calls : int;
  dur_ns : float;  (* mean duration per call *)
  self_ns : float;  (* mean self time per call *)
  dur_words : float;
  self_words : float;
  negative_self : int;  (* spans whose children outweigh them *)
}

let layer_stats sp =
  let self_t, self_w = self_figures sp in
  let k = Array.length layers in
  let calls = Array.make k 0
  and dur = Array.make k 0
  and self = Array.make k 0
  and dw = Array.make k 0
  and sw = Array.make k 0
  and neg = Array.make k 0 in
  for i = 0 to sp.used - 1 do
    let l = sp.layer.{i} in
    calls.(l) <- calls.(l) + 1;
    dur.(l) <- dur.(l) + sp.time.{i};
    self.(l) <- self.(l) + self_t.(i);
    dw.(l) <- dw.(l) + sp.words.{i};
    sw.(l) <- sw.(l) + self_w.(i);
    if self_t.(i) < 0 then neg.(l) <- neg.(l) + 1
  done;
  fun layer ->
    let l = layer_id layer in
    let per x = if calls.(l) = 0 then 0.0 else float_of_int x /. float_of_int calls.(l) in
    {
      calls = calls.(l);
      dur_ns = per dur.(l);
      self_ns = per self.(l);
      dur_words = per dw.(l);
      self_words = per sw.(l);
      negative_self = neg.(l);
    }

(* Mean over requests of the per-layer sum: every layer span of a
   request, replayed ones included, telescopes to the durations of the
   request span's direct children — the calls the untraced loop makes.
   Its distance from the untraced mean request time is therefore what
   tracing itself adds to those calls; whether the replayed children
   fit inside the call they are charged to shows in the sign of the
   mean self figures instead. *)
let layer_sum_per_request sp =
  let requests = ref 0 and total = ref 0 in
  let request = layer_id Request in
  for i = 0 to sp.used - 1 do
    if sp.layer.{i} = request then incr requests
    else begin
      let p = sp.parent.{i} in
      if p >= 0 && sp.layer.{p} = request then total := !total + sp.time.{i}
    end
  done;
  if !requests = 0 then 0.0 else float_of_int !total /. float_of_int !requests

let write_spans sp path =
  let self_t, self_w = self_figures sp in
  let oc = open_out path in
  output_string oc "span\treq\tparent\tlayer\tdur_ns\tself_ns\twords\tself_words\n";
  for i = 0 to sp.used - 1 do
    Printf.fprintf oc "%d\t%d\t%d\t%s\t%d\t%d\t%d\t%d\n" i sp.req.{i}
      sp.parent.{i}
      (layer_name layers.(sp.layer.{i}))
      sp.time.{i} self_t.(i) sp.words.{i} self_w.(i)
  done;
  close_out oc

(* ------------------------------------------------------------------ *)
(* Heap                                                                 *)
(* ------------------------------------------------------------------ *)

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

let words_to_mb w = float_of_int w *. float_of_int (Sys.word_size / 8) /. 1e6
