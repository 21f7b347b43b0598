(* Bounded event trace for the simulator.

   A cheap ring buffer of (time, category, message) entries that the
   network stack and flow plane write into when tracing is enabled;
   experiments and failing tests dump it to see exactly what the
   simulated deployment did.  Disabled tracing costs one branch. *)

type entry = { time : float; category : string; message : string }

type t = {
  capacity : int;
  ring : entry option array;
  mutable next : int;    (* next write position *)
  mutable count : int;   (* total entries ever recorded *)
  mutable enabled : bool;
}

let create ?(capacity = 4096) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  { capacity; ring = Array.make capacity None; next = 0; count = 0;
    enabled = true }

let set_enabled t enabled = t.enabled <- enabled

let record t ~now ~category message =
  if t.enabled then begin
    t.ring.(t.next) <- Some { time = now; category; message };
    t.next <- (t.next + 1) mod t.capacity;
    t.count <- t.count + 1
  end

(* Printf-style recording that formats only when tracing is on. *)
let recordf t ~now ~category fmt =
  if t.enabled then
    Fmt.kstr (fun message -> record t ~now ~category message) fmt
  else Fmt.kstr (fun _ -> ()) fmt

let total_recorded t = t.count

let dropped t = max 0 (t.count - t.capacity)

(* Oldest-first snapshot of the retained entries. *)
let entries t =
  let stored = min t.count t.capacity in
  let start = (t.next - stored + t.capacity) mod t.capacity in
  List.init stored (fun i ->
      match t.ring.((start + i) mod t.capacity) with
      | Some e -> e
      | None -> assert false)

let filter t ~category =
  List.filter (fun e -> String.equal e.category category) (entries t)

let clear t =
  Array.fill t.ring 0 t.capacity None;
  t.next <- 0;
  t.count <- 0
