(* Deterministic fault-injection plane.

   A fault plan is a schedule of (virtual time, action) pairs; installing
   it arms one engine event per entry, so same-seed chaos runs replay the
   identical fault sequence and stay byte-for-byte reproducible.

   The plane is substrate-neutral: actions name hosts and links
   symbolically and an [apply] callback supplied by the driver (the
   simulation driver in practice) carries them out.  This module only
   owns the schedule, the accounting (one metrics counter per action
   kind, a trace instant per injection) and the seeded plan generator. *)

module Metrics = Smart_util.Metrics

type action =
  | Crash_node of string      (* host process dies; its traffic stops *)
  | Restart_node of string
  | Partition_link of string * string  (* direct link drops everything *)
  | Heal_link of string * string
  | Partition_host of string  (* every channel touching the host *)
  | Heal_host of string
  | Corrupt_frames of float   (* per-message stream corruption probability *)
  | Monitor_outage of string  (* the monitor machinery on a host stops *)
  | Monitor_restore of string

let action_kind = function
  | Crash_node _ -> "crash_node"
  | Restart_node _ -> "restart_node"
  | Partition_link _ -> "partition_link"
  | Heal_link _ -> "heal_link"
  | Partition_host _ -> "partition_host"
  | Heal_host _ -> "heal_host"
  | Corrupt_frames _ -> "corrupt_frames"
  | Monitor_outage _ -> "monitor_outage"
  | Monitor_restore _ -> "monitor_restore"

type event = { at : float; action : action }

type plan = event list

(* Plans compare by time, ties by scheduling (list) order: sort must be
   stable so a crash queued before its restart stays before it. *)
let sort_plan plan =
  List.stable_sort (fun a b -> Float.compare a.at b.at) plan

type t = {
  engine : Engine.t;
  trace : Smart_util.Tracelog.t;
  injected_total : Metrics.Counter.t;
  by_kind : (string * Metrics.Counter.t) list;
  mutable injected : int;
  mutable pending : int;
}

let counter_name kind = "faults." ^ kind ^ "_total"

let all_kinds =
  [
    "crash_node"; "restart_node"; "partition_link"; "heal_link";
    "partition_host"; "heal_host"; "corrupt_frames"; "monitor_outage";
    "monitor_restore";
  ]

let install ?(metrics = Metrics.create ())
    ?(trace = Smart_util.Tracelog.disabled) ~engine ~apply plan =
  let t =
    {
      engine;
      trace;
      injected_total =
        Metrics.counter metrics ~help:"fault actions injected"
          "faults.injected_total";
      by_kind =
        List.map
          (fun kind ->
            ( kind,
              Metrics.counter metrics
                ~help:("fault actions injected: " ^ kind)
                (counter_name kind) ))
          all_kinds;
      injected = 0;
      pending = 0;
    }
  in
  List.iter
    (fun { at; action } ->
      t.pending <- t.pending + 1;
      ignore
        (Engine.schedule_at engine ~time:at (fun () ->
             t.pending <- t.pending - 1;
             t.injected <- t.injected + 1;
             Metrics.Counter.incr t.injected_total;
             (match List.assoc_opt (action_kind action) t.by_kind with
             | Some c -> Metrics.Counter.incr c
             | None -> ());
             Smart_util.Tracelog.instant t.trace
               ("fault." ^ action_kind action);
             apply action)))
    (sort_plan plan);
  t

let injected t = t.injected

let pending t = t.pending

(* Seeded chaos generator: [episodes] fault/repair pairs spread over
   [0.1*duration, 0.8*duration], each repaired after a uniform draw from
   [min_repair, max_repair].  Kinds cycle deterministically through
   crash, host partition and monitor outage so every mechanism gets
   exercised; an optional constant frame-corruption rate switches on at
   time 0.  All randomness comes from [rng]. *)
let random_plan ?(episodes = 4) ?(min_repair = 1.0) ?(max_repair = 4.0)
    ?corruption ~rng ~hosts ~monitors ~duration () =
  if hosts = [] then invalid_arg "Faults.random_plan: no hosts";
  if duration <= 0.0 then invalid_arg "Faults.random_plan: bad duration";
  let hosts = Array.of_list hosts in
  let monitors = Array.of_list monitors in
  let base =
    match corruption with
    | None -> []
    | Some rate -> [ { at = 0.0; action = Corrupt_frames rate } ]
  in
  let episodes =
    List.concat
      (List.init episodes (fun i ->
           let at =
             Smart_util.Prng.range rng ~lo:(0.1 *. duration)
               ~hi:(0.8 *. duration)
           in
           let repair =
             at +. Smart_util.Prng.range rng ~lo:min_repair ~hi:max_repair
           in
           match i mod 3 with
           | 0 ->
             let h = Smart_util.Prng.pick rng hosts in
             [
               { at; action = Crash_node h };
               { at = repair; action = Restart_node h };
             ]
           | 1 ->
             let h = Smart_util.Prng.pick rng hosts in
             [
               { at; action = Partition_host h };
               { at = repair; action = Heal_host h };
             ]
           | _ ->
             if Array.length monitors = 0 then []
             else begin
               let m = Smart_util.Prng.pick rng monitors in
               [
                 { at; action = Monitor_outage m };
                 { at = repair; action = Monitor_restore m };
               ]
             end))
  in
  sort_plan (base @ episodes)
