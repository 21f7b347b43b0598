(* Array-backed binary min-heap.  The simulator's event queue sits on
   this, so [push]/[pop] are the hot path: the three fields live in
   parallel arrays (the key column a flat float array, so keys stay
   unboxed) and [push] allocates nothing once the arrays have grown to
   working size. *)

type 'a t = {
  mutable keys : float array;
  mutable stamps : int array;  (* monotonic insertion order, breaks ties *)
  mutable vals : 'a array;
  mutable size : int;
  mutable stamp : int;
}

let create () = { keys = [||]; stamps = [||]; vals = [||]; size = 0; stamp = 0 }

(* [seed] fills the value slots of a fresh allocation (['a] has no
   default); only live slots are ever read back. *)
let ensure_capacity t seed =
  let cap = Array.length t.keys in
  if t.size >= cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let keys = Array.make ncap 0.0 in
    let stamps = Array.make ncap 0 in
    let vals = Array.make ncap seed in
    Array.blit t.keys 0 keys 0 t.size;
    Array.blit t.stamps 0 stamps 0 t.size;
    Array.blit t.vals 0 vals 0 t.size;
    t.keys <- keys;
    t.stamps <- stamps;
    t.vals <- vals
  end

(* Sifts move a hole instead of swapping — one write per level across
   the three arrays, not six.  The ordering is the tuple heap's:
   smaller key first, equal keys in insertion (stamp) order.  A freshly
   pushed element carries the largest stamp yet, so on the way up only
   [key] can decide. *)
let push t ~key v =
  ensure_capacity t v;
  let stamp = t.stamp in
  t.stamp <- stamp + 1;
  let keys = t.keys and stamps = t.stamps and vals = t.vals in
  let i = ref t.size in
  t.size <- t.size + 1;
  let sifting = ref true in
  while !sifting && !i > 0 do
    let parent = (!i - 1) / 2 in
    if keys.(parent) > key then begin
      keys.(!i) <- keys.(parent);
      stamps.(!i) <- stamps.(parent);
      vals.(!i) <- vals.(parent);
      i := parent
    end
    else sifting := false
  done;
  keys.(!i) <- key;
  stamps.(!i) <- stamp;
  vals.(!i) <- v

let peek t = if t.size = 0 then None else Some (t.keys.(0), t.vals.(0))

let pop t =
  if t.size = 0 then None
  else begin
    let key = t.keys.(0) and v = t.vals.(0) in
    let n = t.size - 1 in
    t.size <- n;
    if n > 0 then begin
      (* re-insert the last element down a hole from the root *)
      let keys = t.keys and stamps = t.stamps and vals = t.vals in
      let mk = keys.(n) and ms = stamps.(n) and mv = vals.(n) in
      let i = ref 0 in
      let sifting = ref true in
      while !sifting do
        let l = (2 * !i) + 1 in
        if l >= n then sifting := false
        else begin
          let r = l + 1 in
          let c =
            if
              r < n
              && (keys.(r) < keys.(l)
                 || (keys.(r) = keys.(l) && stamps.(r) < stamps.(l)))
            then r
            else l
          in
          if keys.(c) < mk || (keys.(c) = mk && stamps.(c) < ms) then begin
            keys.(!i) <- keys.(c);
            stamps.(!i) <- stamps.(c);
            vals.(!i) <- vals.(c);
            i := c
          end
          else sifting := false
        end
      done;
      keys.(!i) <- mk;
      stamps.(!i) <- ms;
      vals.(!i) <- mv
    end;
    Some (key, v)
  end

