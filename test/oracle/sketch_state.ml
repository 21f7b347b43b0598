(* Sketch equality over the structural accessors: each level is compared
   as a sorted multiset, since level buffers are only sorted after a
   merge. *)

module Sk = Smart_util.Sketch

let equal a b =
  let same x y = (Float.is_nan x && Float.is_nan y) || Float.equal x y in
  let sorted_levels s =
    List.map
      (fun level ->
        let level = Array.copy level in
        Array.sort Float.compare level;
        level)
      (Sk.levels s)
  in
  Sk.k a = Sk.k b
  && Sk.count a = Sk.count b
  && Sk.err_weight a = Sk.err_weight b
  && same (Sk.min_value a) (Sk.min_value b)
  && same (Sk.max_value a) (Sk.max_value b)
  && List.equal
       (fun x y ->
         Array.length x = Array.length y && Array.for_all2 Float.equal x y)
       (sorted_levels a) (sorted_levels b)
