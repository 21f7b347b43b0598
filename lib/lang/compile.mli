(** Translation of a parsed requirement {!Ast.program} into the flat
    register {!Bytecode.program}.

    Compilation is total: statically-detectable faults (assignment to a
    server-side variable or builtin, unknown function, read of a
    never-assigned temp) compile to FAULT instructions at the exact
    position where the reference evaluator would raise, so the bytecode
    reproduces its per-statement fault behaviour rather than rejecting
    the program. *)

(** Compile a program.  Every output passes {!Bytecode.validate} (the
    operand-bounds walk the interpreter's unsafe accesses rely on);
    [~verify:true] additionally runs the full {!Bytecode.verify}
    dataflow pass and raises [Invalid_argument] on any violation — a
    debug mode for flushing out compiler bugs, off by default because
    the compiler sits on the wizard's cache-miss path. *)
val program : ?verify:bool -> Ast.program -> Bytecode.program

(** Is a statement an [order_by = ...] ranking assignment? *)
val is_order_by : Ast.statement -> bool
