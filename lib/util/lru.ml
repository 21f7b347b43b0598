(* Bounded LRU map with string keys: a hashtable over an intrusive
   doubly-linked recency list.  All operations are O(1); the wizard uses
   it to cache compiled requirement programs. *)

type 'a node = {
  key : string;
  mutable value : 'a;
  mutable prev : 'a node option;  (* toward most-recent *)
  mutable next : 'a node option;  (* toward least-recent *)
}

type 'a t = {
  capacity : int;
  table : (string, 'a node) Hashtbl.t;
  mutable head : 'a node option;  (* most recently used *)
  mutable tail : 'a node option;  (* least recently used *)
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Lru.create: negative capacity";
  {
    capacity;
    table = Hashtbl.create (max 8 capacity);
    head = None;
    tail = None;
  }

let unlink t node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> t.head <- node.next);
  (match node.next with
  | Some n -> n.prev <- node.prev
  | None -> t.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.next <- t.head;
  node.prev <- None;
  (match t.head with Some h -> h.prev <- Some node | None -> t.tail <- Some node);
  t.head <- Some node

let find t key =
  match Hashtbl.find_opt t.table key with
  | None -> None
  | Some node ->
    unlink t node;
    push_front t node;
    Some node.value

let add t key value =
  if t.capacity = 0 then ()
  else
    match Hashtbl.find_opt t.table key with
    | Some node ->
      node.value <- value;
      unlink t node;
      push_front t node
    | None ->
      if Hashtbl.length t.table >= t.capacity then (
        match t.tail with
        | Some lru ->
          unlink t lru;
          Hashtbl.remove t.table lru.key
        | None -> ());
      let node = { key; value; prev = None; next = None } in
      Hashtbl.replace t.table key node;
      push_front t node

let capacity t = t.capacity
