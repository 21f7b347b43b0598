(** Resolves: {!t}, {!Left}, {!Fx_reach}, {!Lint_fixtures.Fx_doc.Right}. *)
type t = Left | Right

(** Dangles: {!Gone}. *)
type u = t

(** Attached to no declaration. *)
