(* Mergeable quantile sketch: equal-capacity compacting buffers in the
   MRL/KLL family.  Level l holds items of weight 2^l; observing
   appends to level 0 and full levels compact upward (sort, keep every
   other element of the even prefix at double weight, at most one
   leftover stays).  The compaction offset is the only random choice
   and draws from the injected PRNG.

   [merge] deliberately does NOT compact: it is the levelwise sorted
   multiset union with summed counters and XOR-combined PRNG states,
   which makes it an exact commutative monoid (see the .mli).  The
   error bound is self-reported: every compaction at level l adds 2^l
   to [err_weight], and any rank query is off by at most that total. *)

let max_levels = 48

type buf = { mutable data : float array; mutable len : int }

type t = {
  k : int;
  mutable levels : buf array;  (* allocated levels; tail may be empty *)
  mutable n : int;             (* total observed weight *)
  mutable minv : float;        (* nan while empty *)
  mutable maxv : float;
  mutable err_weight : int;
  rng : Prng.t;
}

let buf_make () = { data = [||]; len = 0 }

let buf_push b v =
  if b.len = Array.length b.data then begin
    let cap = if b.len = 0 then 8 else 2 * b.len in
    let data = Array.make cap 0.0 in
    Array.blit b.data 0 data 0 b.len;
    b.data <- data
  end;
  b.data.(b.len) <- v;
  b.len <- b.len + 1

(* Float.compare on float-typed arguments compiles to an unboxed call,
   so comparing two array elements allocates nothing. *)
let[@inline] lt (x : float) y = Float.compare x y < 0

(* The child of node [i] of the ternary heap [a.(0 .. n-1)] holding the
   largest value (the first of equals), or -1 when [i] is a leaf. *)
let maxson (a : float array) n i =
  let c = i + i + i + 1 in
  if c + 2 < n then begin
    let x = if lt a.(c) a.(c + 1) then c + 1 else c in
    if lt a.(x) a.(c + 2) then c + 2 else x
  end
  else if c + 1 < n && lt a.(c) a.(c + 1) then c + 1
  else if c < n then c
  else -1

(* Move the hole at node [i] down along the largest children to a leaf
   of [a.(0 .. n-1)]; returns that leaf. *)
let bubble (a : float array) n i =
  let i = ref i and j = ref (maxson a n i) in
  while !j >= 0 do
    a.(!i) <- a.(!j);
    i := !j;
    j := maxson a n !j
  done;
  !i

(* The stdlib's [Array.sort] heap sort, step for step, specialised to
   floats so that no element read is boxed and with its [Bottom]
   exception turned into a -1 child.  Same algorithm, same comparisons,
   hence the same permutation as [Array.sort Float.compare]. *)
let sort_prefix (a : float array) l =
  for i = ((l + 1) / 3) - 1 downto 0 do
    (* sift a.(i) down *)
    let e = a.(i) in
    let k = ref i and j = ref (maxson a l i) in
    while !j >= 0 && lt e a.(!j) do
      a.(!k) <- a.(!j);
      k := !j;
      j := maxson a l !j
    done;
    a.(!k) <- e
  done;
  for n = l - 1 downto 2 do
    (* move the maximum behind the heap, then sift the displaced
       element up from the leaf the hole fell to *)
    let e = a.(n) in
    a.(n) <- a.(0);
    let k = ref (bubble a n 0) in
    while !k > 0 && lt a.((!k - 1) / 3) e do
      a.(!k) <- a.((!k - 1) / 3);
      k := (!k - 1) / 3
    done;
    a.(!k) <- e
  done;
  if l > 1 then begin
    let e = a.(1) in
    a.(1) <- a.(0);
    a.(0) <- e
  end

let check_k k =
  if k < 8 || k mod 2 <> 0 then
    invalid_arg "Sketch.create: k must be even and >= 8"

let create ?(k = 256) ?rng () =
  check_k k;
  let rng = match rng with Some r -> Prng.copy r | None -> Prng.create ~seed:0 in
  { k; levels = [| buf_make () |]; n = 0; minv = Float.nan;
    maxv = Float.nan; err_weight = 0; rng }

let copy t =
  {
    t with
    rng = Prng.copy t.rng;
    levels =
      Array.map
        (fun b -> { data = Array.sub b.data 0 b.len; len = b.len })
        t.levels;
  }

let level t l =
  if l >= Array.length t.levels then begin
    if l >= max_levels then invalid_arg "Sketch: level overflow";
    let levels = Array.init (l + 1) (fun _ -> buf_make ()) in
    Array.blit t.levels 0 levels 0 (Array.length t.levels);
    t.levels <- levels
  end;
  t.levels.(l)

(* Compact level [l]: promote half of the even prefix, keep at most one
   leftover, cascade if the next level fills past k in turn. *)
let rec compact t l =
  let b = t.levels.(l) in
  sort_prefix b.data b.len;
  let pairs = b.len land lnot 1 in
  let offset = if Prng.bool t.rng then 1 else 0 in
  let next = level t (l + 1) in
  let i = ref offset in
  while !i < pairs do
    buf_push next b.data.(!i);
    i := !i + 2
  done;
  if b.len land 1 = 1 then begin
    b.data.(0) <- b.data.(b.len - 1);
    b.len <- 1
  end
  else b.len <- 0;
  t.err_weight <- t.err_weight + (1 lsl l);
  if next.len >= t.k then compact t (l + 1)

let observe t v =
  if not (Float.is_finite v) then
    invalid_arg "Sketch.observe: non-finite value";
  buf_push t.levels.(0) v;
  t.n <- t.n + 1;
  t.minv <- (if t.n = 1 then v else Float.min t.minv v);
  t.maxv <- (if t.n = 1 then v else Float.max t.maxv v);
  if t.levels.(0).len >= t.k then compact t 0

let nlevels_live t =
  let l = ref (Array.length t.levels) in
  while !l > 0 && t.levels.(!l - 1).len = 0 do
    decr l
  done;
  !l

let merge a b =
  if a.n > 0 && b.n > 0 && a.k <> b.k then
    invalid_arg "Sketch.merge: incompatible k";
  let k = if a.n = 0 && b.n = 0 then max a.k b.k
          else if a.n = 0 then b.k else a.k in
  let depth = max 1 (max (nlevels_live a) (nlevels_live b)) in
  let levels =
    Array.init depth (fun l ->
        let take t =
          if l < Array.length t.levels then
            Array.sub t.levels.(l).data 0 t.levels.(l).len
          else [||]
        in
        let data = Array.append (take a) (take b) in
        sort_prefix data (Array.length data);
        { data; len = Array.length data })
  in
  let join f x y =
    if Float.is_nan x then y else if Float.is_nan y then x else f x y
  in
  {
    k;
    levels;
    n = a.n + b.n;
    minv = join Float.min a.minv b.minv;
    maxv = join Float.max a.maxv b.maxv;
    err_weight = a.err_weight + b.err_weight;
    rng = Prng.of_state (Int64.logxor (Prng.state a.rng) (Prng.state b.rng));
  }

let count t = t.n

let min_value t = t.minv

let max_value t = t.maxv

let err_weight t = t.err_weight

(* All retained items as a value-sorted (value, weight) sequence. *)
let weighted_items t =
  let total = Array.fold_left (fun a b -> a + b.len) 0 t.levels in
  let vals = Array.make (max 1 total) 0.0 in
  let weights = Array.make (max 1 total) 0 in
  let pos = ref 0 in
  Array.iteri
    (fun l b ->
      for i = 0 to b.len - 1 do
        vals.(!pos) <- b.data.(i);
        weights.(!pos) <- 1 lsl l;
        incr pos
      done)
    t.levels;
  let idx = Array.init total (fun i -> i) in
  Array.sort
    (fun i j ->
      let c = Float.compare vals.(i) vals.(j) in
      if c <> 0 then c else Int.compare weights.(i) weights.(j))
    idx;
  (total, Array.map (fun i -> vals.(i)) idx,
   Array.map (fun i -> weights.(i)) idx)

let quantile t p =
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg "Sketch.quantile: p outside [0, 1]";
  if t.n = 0 then Float.nan
  else begin
    let total, vals, weights = weighted_items t in
    let target =
      min t.n (max 1 (int_of_float (Float.ceil (p *. float_of_int t.n))))
    in
    let rec walk i cum =
      if i >= total - 1 then vals.(total - 1)
      else
        let cum = cum + weights.(i) in
        if cum >= target then vals.(i) else walk (i + 1) cum
    in
    walk 0 0
  end

let k t = t.k

let levels t =
  let live = nlevels_live t in
  List.init live (fun l -> Array.sub t.levels.(l).data 0 t.levels.(l).len)

let rng_state t = Prng.state t.rng

let of_parts ~k ~err_weight ~min_value ~max_value ~rng_state parts =
  let nlevels = List.length parts in
  if k < 8 || k mod 2 <> 0 then Error "sketch: bad k"
  else if err_weight < 0 then Error "sketch: negative err_weight"
  else if nlevels > max_levels then Error "sketch: too many levels"
  else begin
    let n = ref 0 in
    let bad = ref None in
    List.iteri
      (fun l items ->
        n := !n + (Array.length items lsl l);
        Array.iter
          (fun v ->
            if not (Float.is_finite v) then
              bad := Some "sketch: non-finite retained value")
          items)
      parts;
    match !bad with
    | Some e -> Error e
    | None ->
      if !n = 0 then
        if err_weight <> 0 then Error "sketch: empty with nonzero err_weight"
        else
          Ok
            {
              k;
              levels = [| buf_make () |];
              n = 0;
              minv = Float.nan;
              maxv = Float.nan;
              err_weight = 0;
              rng = Prng.of_state rng_state;
            }
      else if not (Float.is_finite min_value && Float.is_finite max_value)
      then Error "sketch: non-finite extremes"
      else if min_value > max_value then Error "sketch: min above max"
      else if
        List.exists
          (fun items ->
            Array.exists (fun v -> v < min_value || v > max_value) items)
          parts
      then Error "sketch: retained value outside [min, max]"
      else
        let levels =
          Array.of_list
            (List.map
               (fun items ->
                 { data = Array.copy items; len = Array.length items })
               parts)
        in
        Ok
          {
            k;
            levels;
            n = !n;
            minv = min_value;
            maxv = max_value;
            err_weight;
            rng = Prng.of_state rng_state;
          }
  end
