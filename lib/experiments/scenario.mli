(** The seeded scenarios: one table of the simulated runs whose outputs
    are functions of the seed alone (CI runs each twice and diffs the
    files; [tools/sim_identity.sh] diffs them between revisions).

    An entry states its world, deployment, fault plan, workload,
    summary, output files, the markers those files must carry and the
    gate its run must pass.  [examples/<name>_demo.exe [seed]] runs the
    entry [name]; the session bench's churn phase and the acceptance
    tests run the same entries. *)

(** What a client drives once the fault plan is armed. *)
type workload =
  | Requests of {
      client : string;
      count : int;
      every : float;
      wanted : int;
      requirement : string;
    }
      (** [count] requests from [client], each after [every] virtual
          seconds, then a 10 s drain *)
  | Sessions of {
      clients : (string * int) list;
      requirement : string;
      work_interval : float;
      duration : float;
    }  (** one {!Smart_core.Simdriver.run_sessions} *)
  | Traced_request of { client : string; wanted : int; requirement : string }
      (** one request, right after the settle *)

(** What the workload observed. *)
type tally =
  | Answered of { ok : int; total : int }  (** of a [Requests] loop *)
  | Ledger of Smart_core.Simdriver.session_report
  | Reply of (string list, Smart_core.Client.error) result

type t = {
  name : string;  (** [examples/<name>_demo.exe] runs the entry *)
  seed : int;  (** the default seed, the one CI runs *)
  world : int -> Smart_host.Cluster.t;  (** the cluster a seed builds *)
  config : Smart_core.Simdriver.config;
  deploy :
    config:Smart_core.Simdriver.config ->
    Smart_host.Cluster.t ->
    Smart_core.Simdriver.t;
  plan : Smart_sim.Faults.plan;
      (** event times in virtual seconds after the settle *)
  workload : workload;
  summary : Smart_core.Simdriver.t -> tally -> string list;
      (** the lines printed after the fault plan; evaluated once the
          workload is done and before the files are rendered, so a
          summary that drives the deployment (control's SMART-METRICS
          scrape) shows in the files *)
  files : (string * (Smart_core.Simdriver.t -> string)) list;
      (** each file with what renders its bytes *)
  markers : (string * string) list;
      (** [(file, text)]: the file must contain the text *)
  gate : tally -> bool;
}

(** A finished run. *)
type outcome = {
  cluster : Smart_host.Cluster.t;  (** the world the seed built *)
  deployment : Smart_core.Simdriver.t;
  tally : tally;
  report : string list;  (** the summary's lines *)
  outputs : (string * string) list;  (** each file with its bytes *)
}

(** Virtual seconds every run settles before its plan starts. *)
val settle : float

(** [run ?seed s] builds [s]'s world at [seed] (default [s.seed]),
    deploys it, settles, arms the plan, drives the workload and renders
    the summary and the files. *)
val run : ?seed:int -> t -> outcome

(** The markers of [s] that its outcome's files lack. *)
val missing_markers : t -> outcome -> (string * string) list

(** chaos, session_chaos, control and trace, in that order. *)
val all : t list
