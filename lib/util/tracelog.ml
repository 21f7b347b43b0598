(* Span/event recorder behind the trace plane: a bounded ring of spans
   with parent links and an injected clock, exported as text or Chrome
   trace-event JSON.

   The ring's span records are preallocated at [create] and reused in
   place, so recording a span on an enabled recorder allocates nothing:
   [start] claims the next slot and overwrites its fields, [finish]
   stamps the duration through the handle (which *is* the slot).  A
   handle whose slot the ring has lapped (capacity spans opened between
   its [start] and [finish]) stamps whatever span now occupies the slot
   — a bounded inaccuracy accepted for the zero-allocation hot path,
   and impossible in the drivers, which close spans promptly against a
   4096-deep ring.  Ids come from one per-recorder counter, so a trace
   id is simply the id of the span that opened the trace. *)

type ctx = { trace_id : int; span_id : int }

let root = { trace_id = 0; span_id = 0 }

let is_root c = c.span_id = 0 && c.trace_id = 0

type kind = Span | Instant

(* One mutable record serves as both the span handle and the ring
   entry.  [sp_id = 0] marks the inert [none] handle and never-used
   ring slots. *)
type span = {
  mutable sp_name : string;
  mutable sp_kind : kind;
  mutable sp_trace : int;
  mutable sp_id : int;
  mutable sp_parent : int;
  mutable sp_start : float;
  mutable sp_dur : float;  (* nan while open *)
}

let fresh_slot () =
  {
    sp_name = "";
    sp_kind = Span;
    sp_trace = 0;
    sp_id = 0;
    sp_parent = 0;
    sp_start = 0.0;
    sp_dur = Float.nan;
  }

let none = fresh_slot ()

type t = {
  capacity : int;
  ring : span array;    (* preallocated records, reused in place *)
  mutable next : int;   (* next write position *)
  mutable count : int;  (* spans ever recorded *)
  mutable next_id : int;
  mutable clock : unit -> float;
  on : bool;
}

let create ?(capacity = 4096) ?(clock = fun () -> 0.0) () =
  if capacity <= 0 then invalid_arg "Tracelog.create: capacity must be positive";
  {
    capacity;
    ring = Array.init capacity (fun _ -> fresh_slot ());
    next = 0;
    count = 0;
    next_id = 1;
    clock;
    on = true;
  }

let disabled = { (create ~capacity:1 ()) with on = false }

let enabled t = t.on

let open_span t ~parent ~kind ~dur ~at name =
  let id = t.next_id in
  t.next_id <- id + 1;
  let span = t.ring.(t.next) in
  span.sp_name <- name;
  span.sp_kind <- kind;
  span.sp_trace <- (if parent.span_id = 0 then id else parent.trace_id);
  span.sp_id <- id;
  span.sp_parent <- parent.span_id;
  span.sp_start <- at;
  span.sp_dur <- dur;
  (* [next] is always in range, so wrap with a compare instead of the
     integer division a [mod] would cost on every record *)
  let n = t.next + 1 in
  t.next <- (if n = t.capacity then 0 else n);
  t.count <- t.count + 1;
  span

let start t ?(parent = root) ?at name =
  if not t.on then none
  else
    let at = match at with Some a -> a | None -> t.clock () in
    open_span t ~parent ~kind:Span ~dur:Float.nan ~at name

let finish t ?at span =
  if span.sp_id <> 0 && t.on then
    let at = match at with Some a -> a | None -> t.clock () in
    span.sp_dur <- at -. span.sp_start

let instant t ?(parent = root) name =
  if t.on then
    ignore (open_span t ~parent ~kind:Instant ~dur:0.0 ~at:(t.clock ()) name)

let ctx_of span =
  if span.sp_id = 0 then root
  else { trace_id = span.sp_trace; span_id = span.sp_id }

type entry = {
  name : string;
  kind : kind;
  trace_id : int;
  span_id : int;
  parent_id : int;
  start_time : float;
  duration : float;
}

let entry_of (s : span) =
  {
    name = s.sp_name;
    kind = s.sp_kind;
    trace_id = s.sp_trace;
    span_id = s.sp_id;
    parent_id = s.sp_parent;
    start_time = s.sp_start;
    duration = s.sp_dur;
  }

let total_recorded t = t.count

let dropped t = max 0 (t.count - t.capacity)

(* Oldest-first snapshot.  Slots are read defensively (never-written
   slots, [sp_id = 0], are skipped, not asserted away): a realnet flight
   recorder is written from daemon threads without a lock, and a torn
   ring is acceptable there where a crash is not. *)
let entries t =
  let stored = min t.count t.capacity in
  let start = (t.next - stored + t.capacity) mod t.capacity in
  List.filter_map
    (fun i ->
      let s = t.ring.((start + i) mod t.capacity) in
      if s.sp_id = 0 then None else Some (entry_of s))
    (List.init stored (fun i -> i))

(* ------------------------------------------------------------------ *)
(* Rendering                                                            *)
(* ------------------------------------------------------------------ *)

let kind_tag = function Span -> "span" | Instant -> "instant"

let to_text t =
  let buf = Buffer.create 512 in
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "%.9f %s trace=%d span=%d parent=%d dur=%s %s\n"
           e.start_time (kind_tag e.kind) e.trace_id e.span_id e.parent_id
           (if Float.is_nan e.duration then "open"
            else Printf.sprintf "%.9f" e.duration)
           e.name))
    (entries t);
  if dropped t > 0 then
    Buffer.add_string buf
      (Printf.sprintf "(... %d earlier entries dropped)\n" (dropped t));
  Buffer.contents buf

(* The Chrome trace-event "process" of an entry: the dot-prefix of its
   name ("wizard.parse" -> "wizard"), which groups each component's
   spans into its own track in Perfetto. *)
let process_of name =
  match String.index_opt name '.' with
  | Some i when i > 0 -> String.sub name 0 i
  | Some _ | None -> name

let microseconds seconds = Printf.sprintf "%.3f" (seconds *. 1e6)

let to_chrome_json ?(instants = []) t =
  let es = entries t in
  let processes =
    List.sort_uniq String.compare
      (List.map (fun (e : entry) -> process_of e.name) es
      @ List.map (fun (_, category, _) -> process_of category) instants)
  in
  let pid name =
    let rec find i = function
      | [] -> 0
      | p :: rest -> if String.equal p name then i else find (i + 1) rest
    in
    find 1 processes
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  let event line =
    if !first then first := false else Buffer.add_string buf ",";
    Buffer.add_string buf "\n";
    Buffer.add_string buf line
  in
  List.iteri
    (fun i p ->
      event
        (Printf.sprintf
           "{\"ph\":\"M\",\"pid\":%d,\"name\":\"process_name\",\"args\":{\"name\":\"%s\"}}"
           (i + 1) (Json.escape p)))
    processes;
  List.iter
    (fun (e : entry) ->
      match e.kind with
      | Span ->
        event
          (Printf.sprintf
             "{\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%s,\"dur\":%s,\"name\":\"%s\",\"args\":{\"span\":%d,\"parent\":%d%s}}"
             (pid (process_of e.name))
             e.trace_id
             (microseconds e.start_time)
             (if Float.is_nan e.duration then "0.000"
              else microseconds e.duration)
             (Json.escape e.name) e.span_id e.parent_id
             (if Float.is_nan e.duration then ",\"open\":true" else ""))
      | Instant ->
        event
          (Printf.sprintf
             "{\"ph\":\"i\",\"pid\":%d,\"tid\":%d,\"ts\":%s,\"s\":\"g\",\"name\":\"%s\",\"args\":{\"span\":%d,\"parent\":%d}}"
             (pid (process_of e.name))
             e.trace_id
             (microseconds e.start_time)
             (Json.escape e.name) e.span_id e.parent_id))
    es;
  List.iter
    (fun (time, category, message) ->
      event
        (Printf.sprintf
           "{\"ph\":\"i\",\"pid\":%d,\"tid\":0,\"ts\":%s,\"s\":\"g\",\"cat\":\"%s\",\"name\":\"%s\"}"
           (pid (process_of category))
           (microseconds time)
           (Json.escape category)
           (Json.escape message)))
    instants;
  Buffer.add_string buf "\n],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents buf

let render_tree t ~trace_id =
  let es =
    List.filter (fun (e : entry) -> e.trace_id = trace_id) (entries t)
  in
  let in_trace id = List.exists (fun (e : entry) -> e.span_id = id) es in
  let children parent =
    List.sort
      (fun (a : entry) b ->
        match Float.compare a.start_time b.start_time with
        | 0 -> compare a.span_id b.span_id
        | c -> c)
      (List.filter (fun (e : entry) -> e.parent_id = parent) es)
  in
  let buf = Buffer.create 256 in
  let rec render depth (e : entry) =
    Buffer.add_string buf
      (Printf.sprintf "%s%s%s\n"
         (String.make (2 * depth) ' ')
         e.name
         (match e.kind with
         | Instant -> " (instant)"
         | Span ->
           if Float.is_nan e.duration then " (open)"
           else Printf.sprintf " [%.1f us]" (e.duration *. 1e6)));
    List.iter (render (depth + 1)) (children e.span_id)
  in
  (* roots: spans whose parent is 0 or fell off the ring / lives on
     another recorder *)
  List.iter
    (fun (e : entry) ->
      if e.parent_id = 0 || not (in_trace e.parent_id) then render 0 e)
    es;
  Buffer.contents buf
