(* Bounded LRU map: a hashtable over an intrusive doubly-linked recency
   ring.  All operations are O(1); the wizard uses it to cache compiled
   requirement programs, selection results and admission buckets.

   The ring's links are never absent, and the front is a slot rather than
   an option, so a hit that moves its entry to the front allocates
   nothing. *)

(* [prev] points toward the most recent entry and [next] toward the
   least; the head's [prev] is the tail and the tail's [next] the head. *)
type ('k, 'v) node = {
  key : 'k;
  mutable value : 'v;
  mutable prev : ('k, 'v) node;
  mutable next : ('k, 'v) node;
}

type ('k, 'v) t = {
  capacity : int;
  table : ('k, ('k, 'v) node) Hashtbl.t;
  mutable head : ('k, 'v) node array;
      (* [||] while empty, else [| the most recently used entry |] *)
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Lru.create: negative capacity";
  { capacity; table = Hashtbl.create (max 8 capacity); head = [||] }

let unlink node =
  node.prev.next <- node.next;
  node.next.prev <- node.prev

(* Link [node] between the tail and [head]: the ring's least-recent end,
   which becomes its front once the slot names [node]. *)
let link_before head node =
  let tail = head.prev in
  node.prev <- tail;
  node.next <- head;
  tail.next <- node;
  head.prev <- node

let to_front t node =
  let head = t.head.(0) in
  if node != head then begin
    unlink node;
    link_before head node;
    t.head.(0) <- node
  end

let find t key =
  match Hashtbl.find t.table key with
  | node ->
    to_front t node;
    Some node.value
  | exception Not_found -> None

let evict t =
  let head = t.head.(0) in
  let lru = head.prev in
  Hashtbl.remove t.table lru.key;
  if lru == head then t.head <- [||] else unlink lru

let add t key value =
  if t.capacity > 0 then
    match Hashtbl.find t.table key with
    | node ->
      node.value <- value;
      to_front t node
    | exception Not_found ->
      if Hashtbl.length t.table >= t.capacity then evict t;
      let rec node = { key; value; prev = node; next = node } in
      Hashtbl.replace t.table key node;
      if Array.length t.head = 0 then t.head <- [| node |]
      else begin
        link_before t.head.(0) node;
        t.head.(0) <- node
      end

let capacity t = t.capacity
