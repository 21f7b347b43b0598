(* The block decomposition behind the thesis's benchmark program
   (Appendix C.1): the distributed simulation needs only each task's
   byte and operation counts. *)

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
