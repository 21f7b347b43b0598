(* Bounded event trace for the simulator.

   A cheap ring buffer of (time, category, message) entries that the
   network stack and flow plane write into when a trace is attached;
   experiments and failing tests dump it to see exactly what the
   simulated deployment did. *)

type entry = { time : float; category : string; message : string }

type t = {
  capacity : int;
  ring : entry option array;
  mutable next : int;    (* next write position *)
  mutable count : int;   (* total entries ever recorded *)
}

let create ?(capacity = 4096) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  { capacity; ring = Array.make capacity None; next = 0; count = 0 }

let record t ~now ~category message =
  t.ring.(t.next) <- Some { time = now; category; message };
  t.next <- (t.next + 1) mod t.capacity;
  t.count <- t.count + 1

let recordf t ~now ~category fmt =
  Fmt.kstr (fun message -> record t ~now ~category message) fmt

(* Oldest-first snapshot of the retained entries. *)
let entries t =
  let stored = min t.count t.capacity in
  let start = (t.next - stored + t.capacity) mod t.capacity in
  List.init stored (fun i ->
      match t.ring.((start + i) mod t.capacity) with
      | Some e -> e
      | None -> assert false)
