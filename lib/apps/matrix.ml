(* Dense square-matrix arithmetic — the real computation behind the
   thesis's benchmark program (Appendix C.1).  Local mode multiplies for
   real; the distributed simulation only needs the operation counts. *)

type t = { n : int; data : float array }  (* row-major *)

let create n =
  if n <= 0 then invalid_arg "Matrix.create: n must be positive";
  { n; data = Array.make (n * n) 0.0 }

let get m ~row ~col = m.data.((row * m.n) + col)

let set m ~row ~col v = m.data.((row * m.n) + col) <- v

let init n f =
  let m = create n in
  for row = 0 to n - 1 do
    for col = 0 to n - 1 do
      set m ~row ~col (f ~row ~col)
    done
  done;
  m

let random ~rng n =
  init n (fun ~row:_ ~col:_ -> Smart_util.Prng.range rng ~lo:(-1.0) ~hi:1.0)

(* Plain triple loop (the thesis's "vector multiplication way"). *)
let multiply a b =
  if a.n <> b.n then invalid_arg "Matrix.multiply: size mismatch";
  let n = a.n in
  let c = create n in
  for i = 0 to n - 1 do
    for k = 0 to n - 1 do
      let aik = get a ~row:i ~col:k in
      if aik <> 0.0 then
        for j = 0 to n - 1 do
          c.data.((i * n) + j) <-
            c.data.((i * n) + j) +. (aik *. get b ~row:k ~col:j)
        done
    done
  done;
  c

(* Block descriptor of the distributed decomposition: the result block
   covering rows [row0, row0+rows) and cols [col0, col0+cols). *)
type block = { index : int; row0 : int; col0 : int; rows : int; cols : int }

let blocks ~n ~blk =
  if blk <= 0 || blk > n then invalid_arg "Matrix.blocks: bad block size";
  let per_side = (n + blk - 1) / blk in
  List.init (per_side * per_side) (fun index ->
      let bi = index / per_side and bj = index mod per_side in
      let row0 = bi * blk and col0 = bj * blk in
      { index; row0; col0; rows = min blk (n - row0); cols = min blk (n - col0) })

(* Bytes shipped to a worker for one block task: the A row-band and the B
   column-band, 8-byte floats (Appendix C's data exchange). *)
let task_input_bytes ~n b = 8 * ((b.rows * n) + (n * b.cols))

(* Bytes returned: the result block. *)
let task_output_bytes b = 8 * b.rows * b.cols

(* Multiply-accumulate operations in one block task. *)
let task_ops ~n b = b.rows * b.cols * n
