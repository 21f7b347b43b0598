(* Real-socket wizard machine: the wizard role on one event loop.  The
   receiver's TCP connections feed the frame decoder; the wizard's UDP
   socket answers user requests directly to the requesting sockaddr. *)

type config = {
  host : string;  (* logical name of the wizard machine *)
  mode : Smart_core.Wizard.mode;
  staleness_threshold : float;  (* receiver silence before degraded replies *)
  admission : Smart_core.Wizard.admission option;
      (* per-requester-IP token buckets on the request port; None =
         ungated *)
}

type t = {
  db : Smart_core.Status_db.t;
  wizard : Smart_core.Wizard.t;
  loop : Loop.t;
}

let create book (config : config) =
  let role =
    Smart_core.Role.wizard ?admission:config.admission (Daemon.env ())
      ~mode:config.mode ~staleness_threshold:config.staleness_threshold
  in
  {
    db = role.parts.db;
    wizard = role.parts.wizard;
    loop = fst (Daemon.install book ~host:config.host role);
  }

let start t = Loop.start t.loop

let stop t = Loop.stop t.loop

let db t = t.db

let wizard t = t.wizard
