(* One thread of control for a realnet daemon, as the simulator's event
   queue is for the same sans-IO components: only this thread calls them,
   so they need no lock; another thread reaches them through [call]. *)

type timer = {
  offset : float;
  period : unit -> float;
  armed : unit -> bool;
  fire : now:float -> unit;
  mutable due : float;  (* anchored at [offset] past the loop's start *)
}

type t = {
  mutable readers : (Unix.file_descr * (now:float -> unit)) list;
  mutable watched : Unix.file_descr list;  (* [select]'s read set *)
  mutable timers : timer list;  (* in registration order *)
  wake_out : Unix.file_descr;  (* a byte here wakes the loop for [jobs] *)
  lock : Mutex.t;  (* guards [jobs], [live], [thread] and [stopped] *)
  jobs : (unit -> unit) Queue.t;
  mutable live : bool;  (* the thread is in its loop, running jobs *)
  mutable thread : Thread.t option;
  mutable stopped : bool;
}

let close_quietly fd = try Unix.close fd with Unix.Unix_error (_, _, _) -> ()

let set_readers t readers =
  t.readers <- readers;
  t.watched <- List.map fst readers

(* Non-blocking, so a readiness that vanishes before the read costs the
   callback an EAGAIN instead of stalling the loop. *)
let add t fd on_readable =
  Unix.set_nonblock fd;
  set_readers t ((fd, on_readable) :: t.readers)

let remove t fd =
  set_readers t (List.filter (fun (other, _) -> other != fd) t.readers);
  close_quietly fd

let rec run_jobs t =
  match Mutex.protect t.lock (fun () -> Queue.take_opt t.jobs) with
  | Some job ->
    job ();
    run_jobs t
  | None -> ()

let create () =
  let wake_in, wake_out = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_out;
  let t =
    { readers = []; watched = []; timers = []; wake_out;
      lock = Mutex.create (); jobs = Queue.create (); live = false;
      thread = None; stopped = false }
  in
  add t wake_in (fun ~now:_ ->
      (try ignore (Unix.read wake_in (Bytes.create 64) 0 64)
       with Unix.Unix_error (_, _, _) -> ());
      run_jobs t);
  t

(* A full pipe already guarantees a wakeup, so a failed write is fine. *)
let wake t =
  try ignore (Unix.write_substring t.wake_out "!" 0 1)
  with Unix.Unix_error (_, _, _) -> ()

let every ?(armed = fun () -> true) t ~offset ~period fire =
  t.timers <- t.timers @ [ { offset; period; armed; fire; due = infinity } ]

(* Seconds until the earliest armed timer is due, or -1.0: a [select]
   with no timeout arms no kernel timer, a cost on every wakeup. *)
let rec timeout ~now = function
  | [] -> -1.0
  | timer :: rest ->
    let later = timeout ~now rest in
    if not (timer.armed ()) then later
    else
      let wait = Float.max 0.0 (timer.due -. now) in
      if Float.compare later 0.0 < 0 then wait else Float.min wait later

let rec fire_due ~now = function
  | [] -> ()
  | timer :: rest ->
    if timer.armed () && Float.compare now timer.due >= 0 then begin
      timer.fire ~now;
      timer.due <- now +. timer.period ()
    end;
    fire_due ~now rest

let rec dispatch t ~now = function
  | [] -> ()
  | fd :: rest ->
    (* absent when an earlier callback of this round removed it *)
    (match List.assq fd t.readers with
    | on_readable -> on_readable ~now
    | exception Not_found -> ());
    dispatch t ~now rest

(* One clock reading per wakeup, handed to every callback it runs. *)
let rec loop t ~now =
  if not t.stopped then begin
    let readable =
      match Unix.select t.watched [] [] (timeout ~now t.timers) with
      | readable, _, _ -> readable
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
    in
    let now = Unix.gettimeofday () in
    dispatch t ~now readable;
    fire_due ~now t.timers;
    loop t ~now
  end

(* A callback's exception ends the loop; a [call] then runs on its
   caller's thread instead of waiting for ever. *)
let run t =
  Fun.protect
    ~finally:(fun () ->
      Mutex.protect t.lock (fun () -> t.live <- false);
      run_jobs t)
    (fun () ->
      let now = Unix.gettimeofday () in
      List.iter (fun timer -> timer.due <- now +. timer.offset) t.timers;
      loop t ~now)

let start t =
  Mutex.protect t.lock (fun () ->
      if t.stopped || Option.is_some t.thread then
        invalid_arg "Loop.start: already started";
      t.thread <- Some (Thread.create run t);
      t.live <- true)

let call t f =
  let reply = Event.new_channel () in
  let job () =
    Event.sync
      (Event.send reply (match f () with v -> Ok v | exception e -> Error e))
  in
  if Mutex.protect t.lock (fun () -> t.live && (Queue.push job t.jobs; true))
  then begin
    wake t;
    match Event.sync (Event.receive reply) with Ok v -> v | Error e -> raise e
  end
  else f ()

let stop t =
  if Mutex.protect t.lock (fun () -> not t.stopped && (t.stopped <- true; true))
  then begin
    Option.iter (fun thread -> wake t; Thread.join thread) t.thread;
    List.iter (fun (fd, _) -> close_quietly fd) t.readers;
    close_quietly t.wake_out
  end
