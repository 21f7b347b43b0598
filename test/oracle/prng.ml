(* Reference for Smart_util.Prng: the splitmix64 generator with its
   counter in a mutable [int64] field (boxed afresh on every draw), as
   it stood before the production module moved the counter into 8 bytes.
   Every draw must produce the same stream. *)

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create ~seed = { state = Int64.of_int seed }

let copy t = { state = t.state }

let state t = t.state

let of_state state = { state }

(* Core splitmix64 step: advance the counter and scramble it. *)
let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t =
  let seed = Int64.to_int (next_int64 t) in
  { state = Int64.of_int seed }

let bits53 t = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11)

let float t ~bound =
  assert (bound >= 0.0);
  bits53 t /. 9007199254740992.0 *. bound

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
