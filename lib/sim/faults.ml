(* Deterministic fault-injection plane.

   A fault plan is a schedule of (virtual time, action) pairs; installing
   it arms one engine event per entry, so same-seed chaos runs replay the
   identical fault sequence and stay byte-for-byte reproducible.

   The plane is substrate-neutral: actions name hosts symbolically and
   an [apply] callback supplied by the driver (the simulation driver in
   practice) carries them out.  This module only owns the schedule and
   the accounting (one metrics counter per action kind, a trace instant
   per injection). *)

module Metrics = Smart_util.Metrics

type action =
  | Crash_node of string      (* host process dies; its traffic stops *)
  | Restart_node of string
  | Partition_host of string  (* every channel touching the host *)
  | Heal_host of string
  | Corrupt_frames of float   (* per-message stream corruption probability *)

let action_kind = function
  | Crash_node _ -> "crash_node"
  | Restart_node _ -> "restart_node"
  | Partition_host _ -> "partition_host"
  | Heal_host _ -> "heal_host"
  | Corrupt_frames _ -> "corrupt_frames"

type event = { at : float; action : action }

type plan = event list

(* Plans compare by time, ties by scheduling (list) order: sort must be
   stable so a crash queued before its restart stays before it. *)
let sort_plan plan =
  List.stable_sort (fun a b -> Float.compare a.at b.at) plan

let counter_name kind = "faults." ^ kind ^ "_total"

let all_kinds =
  [
    "crash_node"; "restart_node"; "partition_host"; "heal_host";
    "corrupt_frames";
  ]

let install ?(metrics = Metrics.create ())
    ?(trace = Smart_util.Tracelog.disabled) ~engine ~apply plan =
  let injected_total =
    Metrics.counter metrics ~help:"fault actions injected"
      "faults.injected_total"
  in
  let by_kind =
    List.map
      (fun kind ->
        ( kind,
          Metrics.counter metrics
            ~help:("fault actions injected: " ^ kind)
            (counter_name kind) ))
      all_kinds
  in
  List.iter
    (fun { at; action } ->
      ignore
        (Engine.schedule_at engine ~time:at (fun () ->
             Metrics.Counter.incr injected_total;
             (match List.assoc_opt (action_kind action) by_kind with
             | Some c -> Metrics.Counter.incr c
             | None -> ());
             Smart_util.Tracelog.instant trace ("fault." ^ action_kind action);
             apply action)))
    (sort_plan plan)
