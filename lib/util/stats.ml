(* Small statistics toolkit used by the measurement modules and the
   experiment reports: summary moments, percentiles and least-squares
   fits (the bandwidth estimators are slope estimators). *)

let mean xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.mean: empty";
  Array.fold_left ( +. ) 0.0 xs /. float_of_int n

let variance xs =
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let m = mean xs in
    let acc = Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs in
    acc /. float_of_int (n - 1)
  end

let stddev xs = Float.sqrt (variance xs)

let min_max xs =
  if Array.length xs = 0 then invalid_arg "Stats.min_max: empty";
  Array.fold_left
    (fun (lo, hi) x -> (Float.min lo x, Float.max hi x))
    (xs.(0), xs.(0)) xs

(* Nearest-rank percentile on a sorted copy; [p] in [0,100]. *)
let percentile xs ~p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: empty";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let rank = p /. 100.0 *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor rank) in
  let hi = int_of_float (Float.ceil rank) in
  if lo = hi then sorted.(lo)
  else begin
    let w = rank -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. w)) +. (sorted.(hi) *. w)
  end

let median xs = percentile xs ~p:50.0

type linear_fit = { slope : float; intercept : float; r2 : float }

let linear_fit ~xs ~ys =
  let n = Array.length xs in
  if n <> Array.length ys then invalid_arg "Stats.linear_fit: length mismatch";
  if n < 2 then invalid_arg "Stats.linear_fit: need at least two points";
  let fx = mean xs and fy = mean ys in
  let sxy = ref 0.0 and sxx = ref 0.0 and syy = ref 0.0 in
  for i = 0 to n - 1 do
    let dx = xs.(i) -. fx and dy = ys.(i) -. fy in
    sxy := !sxy +. (dx *. dy);
    sxx := !sxx +. (dx *. dx);
    syy := !syy +. (dy *. dy)
  done;
  if !sxx = 0.0 then invalid_arg "Stats.linear_fit: degenerate xs";
  let slope = !sxy /. !sxx in
  let intercept = fy -. (slope *. fx) in
  let r2 = if !syy = 0.0 then 1.0 else !sxy *. !sxy /. (!sxx *. !syy) in
  { slope; intercept; r2 }

(* Fit the two-segment model of Formula (3.6): one slope below the break,
   another above it.  We try every candidate breakpoint on a grid and keep
   the one minimising total squared error.  Returns the break x and the two
   fits.  Used to detect the MTU knee in RTT curves. *)
type knee_fit = { break_x : float; below : linear_fit; above : linear_fit }

let knee_fit ~xs ~ys =
  let n = Array.length xs in
  if n < 8 then invalid_arg "Stats.knee_fit: need at least 8 points";
  let sq_error fit sub_xs sub_ys =
    let acc = ref 0.0 in
    Array.iteri
      (fun i x ->
        let e = sub_ys.(i) -. ((fit.slope *. x) +. fit.intercept) in
        acc := !acc +. (e *. e))
      sub_xs;
    !acc
  in
  let best = ref None in
  (* keep >=4 points in each segment *)
  for k = 3 to n - 5 do
    let xs_lo = Array.sub xs 0 (k + 1) and ys_lo = Array.sub ys 0 (k + 1) in
    let xs_hi = Array.sub xs (k + 1) (n - k - 1)
    and ys_hi = Array.sub ys (k + 1) (n - k - 1) in
    let f_lo = linear_fit ~xs:xs_lo ~ys:ys_lo in
    let f_hi = linear_fit ~xs:xs_hi ~ys:ys_hi in
    let err = sq_error f_lo xs_lo ys_lo +. sq_error f_hi xs_hi ys_hi in
    match !best with
    | Some (best_err, _) when best_err <= err -> ()
    | _ -> best := Some (err, { break_x = xs.(k); below = f_lo; above = f_hi })
  done;
  match !best with
  | Some (_, fit) -> fit
  | None -> invalid_arg "Stats.knee_fit: no candidate breakpoint"
