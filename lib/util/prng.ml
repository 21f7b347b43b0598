(* Deterministic splittable PRNG (splitmix64).  The simulator must give
   bit-identical runs across OCaml releases, so we do not rely on the
   stdlib [Random] implementation.

   The 64-bit counter lives unboxed in 8 bytes: a mutable [int64] field
   would box a fresh counter on every draw.  The step and the float draw
   are inlined into their callers, so a draw that returns an [int] or a
   [bool] allocates nothing. *)

type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state state =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 state;
  t

let create ~seed = of_state (Int64.of_int seed)

let copy = Bytes.copy

let state t = Bytes.get_int64_ne t 0

(* Core splitmix64 step: advance the counter and scramble it. *)
let[@inline] next_int64 t =
  let z = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t = create ~seed:(Int64.to_int (next_int64 t))

let[@inline] float t ~bound =
  assert (bound >= 0.0);
  Int64.to_float (Int64.shift_right_logical (next_int64 t) 11)
  /. 9007199254740992.0 *. bound

(* Uniform integer in [0, bound) without modulo bias for the bound sizes we
   use (bound <= 2^53 always in this project). *)
let int t ~bound =
  assert (bound > 0);
  int_of_float (float t ~bound:(float_of_int bound))

let bool t = Int64.equal (Int64.logand (next_int64 t) 1L) 1L

let range t ~lo ~hi =
  assert (hi >= lo);
  lo +. float t ~bound:(hi -. lo)

(* Box-Muller transform; we draw two uniforms per call and discard the
   second variate to keep the generator state consumption predictable. *)
let gaussian t ~mu ~sigma =
  let u1 = Float.max 1e-12 (float t ~bound:1.0) in
  let u2 = float t ~bound:1.0 in
  let r = Float.sqrt (-2.0 *. Float.log u1) in
  mu +. (sigma *. r *. Float.cos (2.0 *. Float.pi *. u2))

let shuffle t arr =
  let a = Array.copy arr in
  let n = Array.length a in
  for i = n - 1 downto 1 do
    let j = int t ~bound:(i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  a
