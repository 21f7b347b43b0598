(** Flat register bytecode for the requirement language and its
    allocation-free interpreter over a columnar status snapshot.

    {!Compile} translates a parsed {!Ast.program} into a {!program};
    {!run} evaluates it against one server (one dense column index) of a
    {!columns} snapshot, writing every result into the preallocated
    {!state} — the steady-state path performs no allocation; only faults
    (which reproduce the reference evaluator's messages byte-for-byte)
    allocate their message.  The reference semantics is a tree-walking
    evaluator kept with the tests (test/oracle/eval.ml); a QCheck
    differential property pins the two against each other. *)

type f64_matrix =
  (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array2.t

type f64_column =
  (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type i8_column =
  (int, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

(** Structure-of-arrays status snapshot: [sys.{field, server}] holds the
    22 server-side variables ({!sys_fields} order), the net/sec columns
    carry the monitor and security planes with presence flags.  Units
    are the requirement language's: delay in milliseconds, bandwidth in
    Mbps. *)
type columns = {
  n : int;
  sys : f64_matrix;
  net_delay : f64_column;
  net_bw : f64_column;
  has_net : i8_column;
  sec_level : f64_column;
  has_sec : i8_column;
}

(** The server-side variables in column order ([Vars.server_side]). *)
val sys_fields : string array

val sys_field_count : int

val col_net_delay : int

val col_net_bw : int

val col_sec_level : int

(** Column id of a server-side or monitor-side variable. *)
val column_of_var : string -> int option

(** Fresh (uninitialised) columns for [n] servers. *)
val create_columns : int -> columns

(** Slot of a user-side parameter in [Vars.user_side] order: preferred
    hosts are slots [0..4], denied hosts [5..9]. *)
val uparam_slot : string -> int

(** Slots below this bound are user_preferred_host parameters. *)
val preferred_slots : int

type program = {
  code : int array;
  stmt_start : int array;
  stmt_stop : int array;
  stmt_reg : int array;
  stmt_line : int array;
  stmt_logical : bool array;
  stmt_order_by : bool array;
  consts : float array;
  pool : string array;
  fns : (float -> float) array;
  nregs : int;
  ntemps : int;
  nulog : int;
  has_uparams : bool;
  has_order_by : bool;
}

(** Preallocated evaluation state for one program, reused across servers
    and requests.  Register/statement tags: [-1] number, [>= 0] address
    (pool index); statement tags add [-2] fault (message in [serr]).
    [ulog_*] log every user-parameter assignment in execution order
    (the preferred/denied host lists).  [order_val] is one cell, so the
    key is stored unboxed. *)
type state = {
  rtag : int array;
  rval : float array;
  tval_tag : int array;
  tval : float array;
  tinit : bool array;
  uval_tag : int array;
  uval : float array;
  uset : bool array;
  ulog_slot : int array;
  ulog_tag : int array;
  ulog_val : float array;
  mutable ulog_len : int;
  stag : int array;
  sval : float array;
  serr : string array;
  mutable ok : bool;
  mutable order_found : bool;
  order_val : float array;
}

val make_state : program -> state

val nstmts : program -> int

(** Evaluate the program against server [server] of [columns], filling
    [state].  Raises [Invalid_argument] if the index is out of range or
    an opcode is corrupt; language-level faults are recorded per
    statement, never raised.  Alongside the per-statement results, a run
    leaves the qualification verdict in [state.ok] and the [order_by]
    key (the last such assignment that produced a number) in
    [state.order_found] / [state.order_val.(0)].  [stop_unqualified]
    (default false) abandons the remaining statements as soon as a
    logical statement comes out false — the selection scan's mode; the
    per-statement results past that point are then stale, but [ok] is
    already decided.

    The interpreter runs unchecked on operand indices: only programs
    that passed {!validate} (which {!Compile.program} applies) are in
    contract. *)
val run :
  ?stop_unqualified:bool -> program -> state -> columns -> server:int -> unit

(** Did the server qualify (every logical statement truthy, faulted
    logical statements counting as false)?  Reads [state.ok]. *)
val qualified : program -> state -> bool

(** Does the program assign some [user_preferred_hostN]?  Then a later
    server can outrank an earlier one, and a selection scan cannot stop
    at its cut. *)
val sets_preferred : program -> bool

(** Statement-major plan for the dominant requirement shape: a
    conjunction of fused column-vs-constant compares, at most one
    [order_by = <column>], and constant host lists
    ([user_preferred_hostN = <host>], [user_denied_hostN = <host>],
    compiled to [ADDR r a; SETU u r]).  Evaluating such a program
    column-at-a-time over every server beats the interpreter's
    server-at-a-time loop by a wide margin. *)
type sweep

(** The sweep plan of a program, or [None] when any statement falls
    outside the shape — temp or user-parameter reads ([LOADT], [UVAR],
    [GETU]), a host named through a temp, arithmetic, two [order_by]
    lines — and the caller uses {!run}. *)
val sweep_of : program -> sweep option

(** The plan's constant host lists: [slots.(k)] and [tags.(k)] are the
    user-parameter slot and pool index of the [k]-th host-list
    statement, in program order.  This is the [ulog_slot] / [ulog_tag]
    log {!run} leaves on every server that completes, so the caller
    checks the deny and preference lists against qualified servers
    only. *)
type host_log = { slots : int array; tags : int array }

val sweep_hosts : sweep -> host_log

(** Evaluate the plan over servers [lo] to [hi - 1]: [qualified.[s]]
    ends ['\001'] iff server [s] passes every compare, and [order.(s)]
    gets the order_by key ([neg_infinity] where its column has no
    data).  Entries outside the range are untouched, so a scan can
    sweep block by block and stop at its cut.  Raises
    [Invalid_argument] unless [0 <= lo <= hi <= n] and both buffers
    hold [hi] slots.  Agrees with {!run} + {!qualified} /
    [order_found]/[order_val] on every server. *)
val run_sweep :
  sweep ->
  columns ->
  lo:int ->
  hi:int ->
  qualified:Bytes.t ->
  order:float array ->
  unit

(** Check every operand of every instruction against the program's
    declared sizes; raises [Invalid_argument] on the first violation,
    naming the operand kind.  The interpreter's unsafe accesses rely on
    this having passed.  Allocates nothing unless it raises. *)
val validate : program -> unit

(** Where {!verify} found its first violation: statement index and
    program counter ([-1]/[-1] for whole-program judgments such as the
    uparam-log size) plus a human-readable reason. *)
type verify_error = { stmt : int; pc : int; reason : string }

val verify_error_to_string : verify_error -> string

(** Full static verification: the {!validate} bounds walk plus an
    abstract interpretation of every statement slice (register
    init-before-use, numeric soundness of every arithmetic operand —
    the judgment that makes {!Compile}'s NUMCHK elision safe — result
    register coverage on non-faulting paths, dead code after an
    unconditional FAULT carrying no obligations) and the sweep-plan
    precondition (a {!sweep_of}-admitted program reads no temp or user
    parameter, and each of its SETUs logs the address its own
    statement's [ADDR] loaded, the entry {!sweep_hosts} carries).
    The tests run it over every compiled program they generate;
    smartlint's "bytecode" rule runs it over the checked-in fixture
    programs. *)
val verify : program -> (unit, verify_error) result
