(** Resource-footprint experiment (Table 5.2): CPU, memory, and standing
    bandwidth of each component over a simulated deployment.  Bandwidth
    is read from the components' own counters; CPU and memory are
    modelled. *)

type row = {
  component : string;
  cpu_pct : float;
  memory_bytes : int;
  bandwidth_kBps : float;
  paper : string;  (** the thesis's figures for the same cell *)
}

type report = { rows : row list; duration : float; probes : int }

val run : ?duration:float -> unit -> report

val print : report -> unit
