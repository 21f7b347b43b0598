(* Discrete-event simulation engine.

   Events are thunks ordered by virtual time; ties run in scheduling order
   (the heap breaks ties FIFO).  Cancellation is lazy: a cancelled event
   stays in the heap but its thunk is skipped when popped. *)

type handle = { id : int; mutable cancelled : bool }

type event = { handle : handle; thunk : unit -> unit }

type t = {
  queue : event Smart_util.Heap.t;
  mutable now : float;
  mutable next_id : int;
}

exception Time_reversal of { now : float; requested : float }

let create () =
  { queue = Smart_util.Heap.create (); now = 0.0; next_id = 0 }

let now t = t.now

let schedule_at t ~time thunk =
  if time < t.now then raise (Time_reversal { now = t.now; requested = time });
  let handle = { id = t.next_id; cancelled = false } in
  t.next_id <- t.next_id + 1;
  Smart_util.Heap.push t.queue ~key:time { handle; thunk };
  handle

let schedule_after t ~delay thunk =
  if delay < 0.0 then invalid_arg "Engine.schedule_after: negative delay";
  schedule_at t ~time:(t.now +. delay) thunk

let cancel handle = handle.cancelled <- true

(* Run a single event if one is due not later than [limit].  Returns
   [false] when the queue holds nothing at or before [limit]. *)
let step_until t ~limit =
  match Smart_util.Heap.peek t.queue with
  | None -> false
  | Some (time, _) when time > limit -> false
  | Some _ ->
    (match Smart_util.Heap.pop t.queue with
    | None -> false
    | Some (time, ev) ->
      t.now <- time;
      if not ev.handle.cancelled then ev.thunk ();
      true)

let run t ~until =
  if until < t.now then raise (Time_reversal { now = t.now; requested = until });
  while step_until t ~limit:until do () done;
  t.now <- until

(* Periodic process: re-arms itself after every firing until stopped.  The
   callback receives the current virtual time. *)
type periodic = { mutable stopped : bool; mutable current : handle option }

let every t ~period ~start f =
  if period <= 0.0 then invalid_arg "Engine.every: period must be positive";
  let proc = { stopped = false; current = None } in
  let rec arm at =
    if not proc.stopped then
      proc.current <-
        Some
          (schedule_at t ~time:at (fun () ->
               if not proc.stopped then begin
                 f t.now;
                 arm (t.now +. period)
               end))
  in
  arm (Float.max t.now start);
  proc

let stop_periodic proc =
  proc.stopped <- true;
  match proc.current with
  | None -> ()
  | Some h -> cancel h
