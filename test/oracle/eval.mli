(** Reference evaluator for requirement programs (yacc semantics of
    Fig 4.2): a tree walk over the {!Smart_lang.Ast}, kept beside the
    tests as the oracle the bytecode interpreter is held to.

    Qualification rule: the server qualifies iff every *logical*
    statement (one whose main operator is a comparison or boolean
    connective) evaluates truthy; faults inside a logical statement make
    it false. *)

open Smart_lang

(** Server-side variable binding supplied by the wizard. *)
type binding = string -> Value.t option

type fault = { line : int; message : string }

type statement_result = {
  line : int;
  logical : bool;
  value : (Value.t, string) result;
}

type outcome = {
  qualified : bool;
  statements : statement_result list;
  uparams : (string * Value.t) list;
      (** user-side parameter assignments, in order *)
  faults : fault list;
}

(** Evaluate a program under the given server-side bindings. *)
val run : ?lookup:binding -> Ast.program -> outcome

(** [(preferred, denied)] host strings collected from the user-side
    parameters of an outcome. *)
val host_lists : outcome -> string list * string list

(** The outcome a finished {!Smart_lang.Bytecode.run} left in its state,
    in this module's terms, so the two evaluators can be compared
    statement by statement. *)
val of_bytecode : Bytecode.program -> Bytecode.state -> outcome
