(** Translation of a parsed requirement {!Ast.program} into the flat
    register {!Bytecode.program}.

    Compilation is total: statically-detectable faults (assignment to a
    server-side variable or builtin, unknown function, read of a
    never-assigned temp) compile to FAULT instructions at the exact
    position where the reference evaluator would raise, so the bytecode
    reproduces its per-statement fault behaviour rather than rejecting
    the program.

    The wizard compiles on every compile-cache miss, so the compiler
    allocates little besides the program it returns: its constant,
    string, function and temp tables are short lists rather than hash
    tables, and the message of every column read is built once, when
    the module initialises. *)

(** Compile a program.  Every output passes {!Bytecode.validate} (the
    operand-bounds walk the interpreter's unsafe accesses rely on, which
    allocates nothing).  The full {!Bytecode.verify} dataflow pass is
    not run here: the compiler sits on the wizard's cache-miss path. *)
val program : Ast.program -> Bytecode.program
