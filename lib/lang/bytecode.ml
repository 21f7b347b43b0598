(* Flat register bytecode for the requirement language, and its
   allocation-free interpreter.

   The tree-walking evaluator the test suites keep as their oracle
   ([Eval], test/oracle/eval.ml) defines the reference semantics;
   [Compile] translates a parsed [Ast.program] into a [program] whose
   inner loop evaluates one server per call against a columnar status
   snapshot ([columns]) without allocating: registers are a pair of
   parallel arrays (a float value plus an integer tag: [-1] for numbers,
   a string-pool index for addresses), temps and user parameters live in
   fixed preallocated slots, and statement results land in per-statement
   arrays.  Only the fault path (which must reproduce [Eval]'s formatted
   messages exactly) allocates.

   Keeping that promise takes care with floats.  Without flambda a
   float passed to or returned from a function that is not inlined is
   boxed, and dune's dev profile compiles with [-opaque], so every call
   into another module counts.  Floats therefore stay in float arrays
   (registers, temps, the one-cell [order_val]) or in [@inline] helpers
   ([read_col], [cmp_holds], [truthy]); [exec] and [run] are top-level
   recursive functions, so no per-instruction or per-server closure is
   built.  A float field of the mixed [state] record would box on every
   write.

   The string pool is deduplicated by content, so address equality in
   CMP is integer equality on pool indices.

   Opcode table (operands are consecutive ints in [code]):

     0  CONST  dst cidx        dst := consts.(cidx)
     1  ADDR   dst pidx        dst := Addr pool.(pidx)
     2  LOAD   dst col pmsg    dst := column col of the current server;
                               faults pool.(pmsg) when a monitor/security
                               column has no data for the server
     3  NUMCHK r               fault if r holds an address
     4  ADD    dst a b         dst := a + b   (operands pre-NUMCHKed)
     5  SUB    dst a b         dst := a - b
     6  MUL    dst a b         dst := a * b
     7  DIV    dst a b         dst := a / b; faults on b = 0
     8  POW    dst a b         dst := a ** b; faults on NaN
     9  NEG    dst a           dst := -a
    10  CALL   dst fn pname a  dst := fns.(fn) a; faults on NaN
    11  CMP    dst sub a b     comparison, sub in 0..5 = < <= > >= == !=
    12  AND    dst a b         truthy a && truthy b (both evaluated)
    13  OR     dst a b         truthy a || truthy b
    14  LOADT  dst t pmsg      dst := temp t; faults pool.(pmsg) if unset
    15  STORET t src           temp t := src
    16  GETU   dst u pmsg      dst := uparam u; faults pool.(pmsg) if unset
    17  SETU   u src           uparam u := src, appended to the log
    18  UVAR   dst t pidx      dst := temp t if set, else Addr pool.(pidx)
                               (the bare-identifier-names-a-host rule)
    19  FAULT  pmsg            unconditional fault (statically detected)
    20  CMPC   dst sub col pmsg cidx
                               fused [column CMP constant], the dominant
                               statement shape: one dispatch instead of
                               LOAD + CONST + CMP

   Faults abort only the current statement's slice, exactly like the
   reference evaluator: side effects already performed stick. *)

(* ------------------------------------------------------------------ *)
(* Columnar status snapshot                                            *)
(* ------------------------------------------------------------------ *)

type f64_matrix =
  (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array2.t

type f64_column =
  (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type i8_column =
  (int, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

(* Structure-of-arrays view of the status plane: one row per field, one
   element per server (dense index = scan order).  Monitor and security
   fields carry a presence column since not every server has them. *)
type columns = {
  n : int;
  sys : f64_matrix;          (* sys.{field, server}, fields as in [sys_fields] *)
  net_delay : f64_column;    (* milliseconds, the unit of monitor_network_delay *)
  net_bw : f64_column;       (* Mbps, the unit of monitor_network_bw *)
  has_net : i8_column;
  sec_level : f64_column;
  has_sec : i8_column;
}

(* The 22 server-side variables in [Vars.server_side] order; a variable's
   position is its column id. *)
let sys_fields = Array.of_list Vars.server_side

let sys_field_count = Array.length sys_fields

let col_net_delay = sys_field_count

let col_net_bw = sys_field_count + 1

let col_sec_level = sys_field_count + 2

let column_of_var =
  let tbl = Hashtbl.create 32 in
  Array.iteri (fun i name -> Hashtbl.replace tbl name i) sys_fields;
  Hashtbl.replace tbl "monitor_network_delay" col_net_delay;
  Hashtbl.replace tbl "monitor_network_bw" col_net_bw;
  Hashtbl.replace tbl "host_security_level" col_sec_level;
  fun name -> Hashtbl.find_opt tbl name

let create_columns n =
  {
    n;
    sys = Bigarray.Array2.create Bigarray.float64 Bigarray.c_layout
        sys_field_count n;
    net_delay = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n;
    net_bw = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n;
    has_net = Bigarray.Array1.create Bigarray.int8_unsigned Bigarray.c_layout n;
    sec_level = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n;
    has_sec = Bigarray.Array1.create Bigarray.int8_unsigned Bigarray.c_layout n;
  }

(* ------------------------------------------------------------------ *)
(* Programs and interpreter state                                      *)
(* ------------------------------------------------------------------ *)

let uparam_count = List.length Vars.user_side

(* Index of a user-side parameter in [Vars.user_side]: preferred hosts
   occupy slots 0..4, denied hosts 5..9. *)
let uparam_slot name =
  let rec go i = function
    | [] -> invalid_arg ("Bytecode.uparam_slot: " ^ name)
    | n :: rest -> if String.equal n name then i else go (i + 1) rest
  in
  go 0 Vars.user_side

let preferred_slots = 5

type program = {
  code : int array;
  stmt_start : int array;     (* code slice of statement s *)
  stmt_stop : int array;
  stmt_reg : int array;       (* register holding statement s's value *)
  stmt_line : int array;
  stmt_logical : bool array;
  stmt_order_by : bool array; (* statement is an [order_by = ...] assign *)
  consts : float array;
  pool : string array;        (* deduplicated strings: addresses, messages *)
  fns : (float -> float) array;
  nregs : int;
  ntemps : int;
  nulog : int;                (* SETU sites = max uparam log entries per run *)
  has_uparams : bool;
  has_order_by : bool;
}

(* Mutable evaluation state sized for one program, reset per server.
   Tags: -1 = number, >= 0 = address (pool index); statement tags add
   -2 = fault (message in [serr]). *)
type state = {
  rtag : int array;
  rval : float array;
  tval_tag : int array;
  tval : float array;
  tinit : bool array;
  uval_tag : int array;
  uval : float array;
  uset : bool array;
  ulog_slot : int array;      (* uparam log: every SETU in execution order *)
  ulog_tag : int array;
  ulog_val : float array;
  mutable ulog_len : int;
  stag : int array;
  sval : float array;
  serr : string array;
  mutable ok : bool;          (* all logical statements truthy so far *)
  mutable order_found : bool; (* last numeric [order_by] result, if any *)
  order_val : float array;    (* one cell: the key, stored unboxed *)
}

let no_error = ""

let nstmts p = Array.length p.stmt_start

let make_state p =
  let zeros n = Array.make (max n 1) 0 in
  let fzeros n = Array.make (max n 1) 0.0 in
  {
    rtag = Array.make (max p.nregs 1) (-1);
    rval = fzeros p.nregs;
    tval_tag = zeros p.ntemps;
    tval = fzeros p.ntemps;
    tinit = Array.make (max p.ntemps 1) false;
    uval_tag = zeros uparam_count;
    uval = fzeros uparam_count;
    uset = Array.make uparam_count false;
    ulog_slot = zeros p.nulog;
    ulog_tag = zeros p.nulog;
    ulog_val = fzeros p.nulog;
    ulog_len = 0;
    stag = zeros (nstmts p);
    sval = fzeros (nstmts p);
    serr = Array.make (max (nstmts p) 1) no_error;
    ok = true;
    order_found = false;
    order_val = [| 0.0 |];
  }

exception Fault of string

(* Fault constructors, matching Eval's messages byte-for-byte. *)
let fault_static msg = raise (Fault msg)

let fault_addr_numeric a =
  raise (Fault (Printf.sprintf "address %s used in numeric context" a))

let fault_div = "division by 0"

let fault_pow x y =
  raise (Fault (Printf.sprintf "%g ^ %g is undefined" x y))

let fault_call name v =
  raise (Fault (Printf.sprintf "%s(%g) is undefined" name v))

let fault_addr_order = "addresses cannot be ordered"

let fault_mixed_order = "cannot order a number against an address"

let[@inline] truthy pool tag v =
  if tag >= 0 then String.length (Array.unsafe_get pool tag) > 0
  else v <> 0.0

(* ------------------------------------------------------------------ *)
(* Interpreter                                                         *)
(* ------------------------------------------------------------------ *)

(* Value of column [col] for [server], with the monitor/security
   presence faults.  Bigarray bounds were validated once in [run]
   ([0 <= server < c.n], every column id static), so the reads use the
   unsafe accessors; this module is the single allowlisted home of
   Bigarray.*unsafe_* and of the Array.unsafe accessors on validated
   operands (see the smartlint rule).  Inlined, so the value never
   leaves a register boxed. *)
let[@inline] read_col (c : columns) ~server col pool pmsg =
  if col < sys_field_count then Bigarray.Array2.unsafe_get c.sys col server
  else if col = col_net_delay then begin
    if Bigarray.Array1.unsafe_get c.has_net server = 0 then
      fault_static (Array.unsafe_get pool pmsg : string);
    Bigarray.Array1.unsafe_get c.net_delay server
  end
  else if col = col_net_bw then begin
    if Bigarray.Array1.unsafe_get c.has_net server = 0 then
      fault_static (Array.unsafe_get pool pmsg : string);
    Bigarray.Array1.unsafe_get c.net_bw server
  end
  else begin
    if Bigarray.Array1.unsafe_get c.has_sec server = 0 then
      fault_static (Array.unsafe_get pool pmsg : string);
    Bigarray.Array1.unsafe_get c.sec_level server
  end

(* Comparison sub-opcode [sub] on two numbers.  An if-chain, commonest
   first, not a [match]: the sweep runs this once per server per
   compare, and the jump table a [match] compiles to costs more than
   the compare itself. *)
let[@inline] cmp_holds sub (x : float) (y : float) =
  if sub = 2 then x > y
  else if sub = 0 then x < y
  else if sub = 3 then x >= y
  else if sub = 1 then x <= y
  else if sub = 4 then x = y
  else x <> y

(* Operand [k] of the instruction at [pc]. *)
let[@inline] arg code pc k = Array.unsafe_get code (pc + k)

(* One statement slice over one server, tail-recursively so the program
   counter lives in a register.  Operand indices were validated by
   [Compile.program] (see [validate]), hence the unsafe accessors; a
   hand-built [program] that lies about its bounds is out of contract. *)
let rec exec p st (c : columns) ~server code pc stop =
  if pc < stop then begin
    let rtag = st.rtag and rval = st.rval in
    match Array.unsafe_get code pc with
    | 0 (* CONST *) ->
      let dst = arg code pc 1 in
      Array.unsafe_set rtag dst (-1);
      Array.unsafe_set rval dst (Array.unsafe_get p.consts (arg code pc 2));
      exec p st c ~server code (pc + 3) stop
    | 1 (* ADDR *) ->
      Array.unsafe_set rtag (arg code pc 1) (arg code pc 2);
      exec p st c ~server code (pc + 3) stop
    | 2 (* LOAD *) ->
      let dst = arg code pc 1 in
      let v = read_col c ~server (arg code pc 2) p.pool (arg code pc 3) in
      Array.unsafe_set rtag dst (-1);
      Array.unsafe_set rval dst v;
      exec p st c ~server code (pc + 4) stop
    | 3 (* NUMCHK *) ->
      let r = arg code pc 1 in
      let tag = Array.unsafe_get rtag r in
      if tag >= 0 then fault_addr_numeric p.pool.(tag);
      exec p st c ~server code (pc + 2) stop
    | 4 (* ADD *) ->
      let dst = arg code pc 1 in
      Array.unsafe_set rtag dst (-1);
      Array.unsafe_set rval dst
        (Array.unsafe_get rval (arg code pc 2)
        +. Array.unsafe_get rval (arg code pc 3));
      exec p st c ~server code (pc + 4) stop
    | 5 (* SUB *) ->
      let dst = arg code pc 1 in
      Array.unsafe_set rtag dst (-1);
      Array.unsafe_set rval dst
        (Array.unsafe_get rval (arg code pc 2)
        -. Array.unsafe_get rval (arg code pc 3));
      exec p st c ~server code (pc + 4) stop
    | 6 (* MUL *) ->
      let dst = arg code pc 1 in
      Array.unsafe_set rtag dst (-1);
      Array.unsafe_set rval dst
        (Array.unsafe_get rval (arg code pc 2)
        *. Array.unsafe_get rval (arg code pc 3));
      exec p st c ~server code (pc + 4) stop
    | 7 (* DIV *) ->
      let dst = arg code pc 1 in
      let y = Array.unsafe_get rval (arg code pc 3) in
      if y = 0.0 then fault_static fault_div;
      Array.unsafe_set rtag dst (-1);
      Array.unsafe_set rval dst (Array.unsafe_get rval (arg code pc 2) /. y);
      exec p st c ~server code (pc + 4) stop
    | 8 (* POW *) ->
      let dst = arg code pc 1 in
      let x = Array.unsafe_get rval (arg code pc 2)
      and y = Array.unsafe_get rval (arg code pc 3) in
      let r = x ** y in
      if Float.is_nan r then fault_pow x y;
      Array.unsafe_set rtag dst (-1);
      Array.unsafe_set rval dst r;
      exec p st c ~server code (pc + 4) stop
    | 9 (* NEG *) ->
      let dst = arg code pc 1 in
      Array.unsafe_set rtag dst (-1);
      Array.unsafe_set rval dst (-.Array.unsafe_get rval (arg code pc 2));
      exec p st c ~server code (pc + 3) stop
    | 10 (* CALL *) ->
      let dst = arg code pc 1 in
      let v = Array.unsafe_get rval (arg code pc 4) in
      let r = (Array.unsafe_get p.fns (arg code pc 2)) v in
      if Float.is_nan r then fault_call p.pool.(arg code pc 3) v;
      Array.unsafe_set rtag dst (-1);
      Array.unsafe_set rval dst r;
      exec p st c ~server code (pc + 5) stop
    | 11 (* CMP *) ->
      let dst = arg code pc 1 in
      let sub = arg code pc 2 in
      let a = arg code pc 3 and b = arg code pc 4 in
      let ta = Array.unsafe_get rtag a and tb = Array.unsafe_get rtag b in
      let r =
        if ta < 0 && tb < 0 then
          if cmp_holds sub (Array.unsafe_get rval a) (Array.unsafe_get rval b)
          then 1.0
          else 0.0
        else if ta >= 0 && tb >= 0 then
          (* pool indices are deduplicated, so index equality is string
             equality *)
          match sub with
          | 4 -> if ta = tb then 1.0 else 0.0
          | 5 -> if ta <> tb then 1.0 else 0.0
          | _ -> fault_static fault_addr_order
        else
          match sub with
          | 4 -> 0.0
          | 5 -> 1.0
          | _ -> fault_static fault_mixed_order
      in
      Array.unsafe_set rtag dst (-1);
      Array.unsafe_set rval dst r;
      exec p st c ~server code (pc + 5) stop
    | 12 (* AND *) ->
      let dst = arg code pc 1 in
      let a = arg code pc 2 and b = arg code pc 3 in
      let x = truthy p.pool (Array.unsafe_get rtag a) (Array.unsafe_get rval a) in
      let y = truthy p.pool (Array.unsafe_get rtag b) (Array.unsafe_get rval b) in
      Array.unsafe_set rtag dst (-1);
      Array.unsafe_set rval dst (if x && y then 1.0 else 0.0);
      exec p st c ~server code (pc + 4) stop
    | 13 (* OR *) ->
      let dst = arg code pc 1 in
      let a = arg code pc 2 and b = arg code pc 3 in
      let x = truthy p.pool (Array.unsafe_get rtag a) (Array.unsafe_get rval a) in
      let y = truthy p.pool (Array.unsafe_get rtag b) (Array.unsafe_get rval b) in
      Array.unsafe_set rtag dst (-1);
      Array.unsafe_set rval dst (if x || y then 1.0 else 0.0);
      exec p st c ~server code (pc + 4) stop
    | 14 (* LOADT *) ->
      let dst = arg code pc 1 in
      let t = arg code pc 2 in
      if not (Array.unsafe_get st.tinit t) then
        fault_static p.pool.(arg code pc 3);
      Array.unsafe_set rtag dst (Array.unsafe_get st.tval_tag t);
      Array.unsafe_set rval dst (Array.unsafe_get st.tval t);
      exec p st c ~server code (pc + 4) stop
    | 15 (* STORET *) ->
      let t = arg code pc 1 in
      let src = arg code pc 2 in
      Array.unsafe_set st.tval_tag t (Array.unsafe_get rtag src);
      Array.unsafe_set st.tval t (Array.unsafe_get rval src);
      Array.unsafe_set st.tinit t true;
      exec p st c ~server code (pc + 3) stop
    | 16 (* GETU *) ->
      let dst = arg code pc 1 in
      let u = arg code pc 2 in
      if not (Array.unsafe_get st.uset u) then
        fault_static p.pool.(arg code pc 3);
      Array.unsafe_set rtag dst (Array.unsafe_get st.uval_tag u);
      Array.unsafe_set rval dst (Array.unsafe_get st.uval u);
      exec p st c ~server code (pc + 4) stop
    | 17 (* SETU *) ->
      let u = arg code pc 1 in
      let src = arg code pc 2 in
      let tag = Array.unsafe_get rtag src and v = Array.unsafe_get rval src in
      Array.unsafe_set st.uval_tag u tag;
      Array.unsafe_set st.uval u v;
      Array.unsafe_set st.uset u true;
      let k = st.ulog_len in
      Array.unsafe_set st.ulog_slot k u;
      Array.unsafe_set st.ulog_tag k tag;
      Array.unsafe_set st.ulog_val k v;
      st.ulog_len <- k + 1;
      exec p st c ~server code (pc + 3) stop
    | 18 (* UVAR *) ->
      let dst = arg code pc 1 in
      let t = arg code pc 2 in
      if Array.unsafe_get st.tinit t then begin
        Array.unsafe_set rtag dst (Array.unsafe_get st.tval_tag t);
        Array.unsafe_set rval dst (Array.unsafe_get st.tval t)
      end
      else Array.unsafe_set rtag dst (arg code pc 3);
      exec p st c ~server code (pc + 4) stop
    | 19 (* FAULT *) -> fault_static p.pool.(arg code pc 1)
    | 20 (* CMPC *) ->
      let dst = arg code pc 1 in
      let v = read_col c ~server (arg code pc 3) p.pool (arg code pc 4) in
      let y = Array.unsafe_get p.consts (arg code pc 5) in
      Array.unsafe_set rtag dst (-1);
      Array.unsafe_set rval dst
        (if cmp_holds (arg code pc 2) v y then 1.0 else 0.0);
      exec p st c ~server code (pc + 6) stop
    | op -> invalid_arg (Printf.sprintf "Bytecode.run: bad opcode %d" op)
  end

(* Statements [s..] of one run, recording each result. *)
let rec run_from p st (c : columns) ~server ~stop_unqualified s =
  if s < nstmts p then begin
    (match
       exec p st c ~server p.code
         (Array.unsafe_get p.stmt_start s)
         (Array.unsafe_get p.stmt_stop s)
     with
    | () ->
      let r = Array.unsafe_get p.stmt_reg s in
      let tag = Array.unsafe_get st.rtag r in
      let v = Array.unsafe_get st.rval r in
      Array.unsafe_set st.stag s tag;
      Array.unsafe_set st.sval s v;
      if Array.unsafe_get p.stmt_logical s && not (truthy p.pool tag v) then
        st.ok <- false;
      if Array.unsafe_get p.stmt_order_by s && tag = -1 then begin
        st.order_found <- true;
        Array.unsafe_set st.order_val 0 v
      end
    | exception Fault m ->
      Array.unsafe_set st.stag s (-2);
      st.serr.(s) <- m;
      if Array.unsafe_get p.stmt_logical s then st.ok <- false);
    if not (stop_unqualified && not st.ok) then
      run_from p st c ~server ~stop_unqualified (s + 1)
  end

(* [stop_unqualified] lets the selection scan abandon a server at its
   first false logical statement: per-server state is torn down at the
   next [run] anyway and the caller only reads [qualified], which is
   already decided.  Full runs (the differential/diagnostic paths)
   execute every statement like the reference evaluator. *)
let run ?(stop_unqualified = false) p st (c : columns) ~server =
  if server < 0 || server >= c.n then
    invalid_arg "Bytecode.run: server index out of range";
  if p.ntemps > 0 then Array.fill st.tinit 0 p.ntemps false;
  if p.has_uparams then Array.fill st.uset 0 uparam_count false;
  st.ulog_len <- 0;
  st.ok <- true;
  st.order_found <- false;
  run_from p st c ~server ~stop_unqualified 0

(* ------------------------------------------------------------------ *)
(* Reading the results of a run                                        *)
(* ------------------------------------------------------------------ *)

(* Server qualifies iff every logical statement was truthy; a faulted
   logical statement is false (Eval's rule).  Computed on the fly by
   [run]. *)
let qualified _p st = st.ok

(* ------------------------------------------------------------------ *)
(* Statement-major sweep plan                                          *)
(* ------------------------------------------------------------------ *)

(* Width in code cells of an instruction with opcode [op]; 0 for an
   unknown opcode. *)
let op_width = function
  | 3 | 19 -> 2
  | 0 | 1 | 9 | 15 | 17 -> 3
  | 2 | 4 | 5 | 6 | 7 | 8 | 12 | 13 | 14 | 16 | 18 -> 4
  | 10 | 11 -> 5
  | 20 -> 6
  | _ -> 0

(* Does the code assign some user_preferred_hostN (a SETU below
   [preferred_slots])?  Then a later server can outrank an earlier one,
   so a scan cannot stop at its cut. *)
let sets_preferred p =
  let code = p.code in
  let rec scan pc =
    pc < Array.length code
    &&
    let op = code.(pc) in
    let width = op_width op in
    width > 0
    && pc + width <= Array.length code
    && ((op = 17 && code.(pc + 1) < preferred_slots) || scan (pc + width))
  in
  scan 0

(* The dominant requirement shape — a conjunction of column-vs-constant
   compares, at most one [order_by = <column>], and constant host lists
   ([user_preferred_hostN = <host>], [user_denied_hostN = <host>]) —
   admits a much better evaluation order than server-at-a-time: sweep
   each compare down its whole column, clearing a per-server
   qualification byte, then read the order column directly.  No register
   file, no per-statement dispatch, no per-server teardown.

   A host-list statement compiles to [ADDR r a; SETU u r]: it cannot
   fault and logs the same entry on every server, so the plan records
   the log once, as (slot, pool index) pairs in program order, and the
   caller replays it against each qualified server's name and IP.

   The plan is only equivalent when nothing else observes evaluation:
   no temp or user-parameter reads and no other statement kinds.
   [sweep_of] returns [None] for everything else and the caller falls
   back to [run]. *)
type host_log = { slots : int array; tags : int array }

type sweep = {
  sw_sub : int array;      (* comparison sub-opcode per compare *)
  sw_col : int array;      (* column id per compare *)
  sw_const : float array;  (* right-hand constant per compare *)
  sw_ncmp : int;
  sw_order_col : int;      (* order_by column, -1 when absent *)
  sw_hosts : host_log;     (* the constant uparam log *)
}

let sweep_hosts sw = sw.sw_hosts

let sweep_of p =
  let code = p.code in
  let n = nstmts p in
  let sub = Array.make (max n 1) 0 in
  let col = Array.make (max n 1) 0 in
  let konst = Array.make (max n 1) 0.0 in
  let slots = Array.make n 0 in
  let tags = Array.make n 0 in
  let ncmp = ref 0 in
  let nhosts = ref 0 in
  let order_col = ref (-1) in
  let orders = ref 0 in
  let simple = ref true in
  for s = 0 to n - 1 do
    let start = p.stmt_start.(s) in
    let len = p.stmt_stop.(s) - start in
    if p.stmt_logical.(s) && len = 6 && code.(start) = 20 then begin
      (* CMPC dst sub col pmsg cidx *)
      sub.(!ncmp) <- code.(start + 2);
      col.(!ncmp) <- code.(start + 3);
      konst.(!ncmp) <- p.consts.(code.(start + 5));
      incr ncmp
    end
    else if
      p.stmt_order_by.(s)
      && (not p.stmt_logical.(s))
      && len = 7
      && code.(start) = 2 (* LOAD *)
      && code.(start + 4) = 15 (* STORET *)
    then begin
      order_col := code.(start + 2);
      incr orders
    end
    else if
      (not p.stmt_logical.(s))
      && len = 6
      && code.(start) = 1 (* ADDR r a *)
      && code.(start + 3) = 17 (* SETU u r *)
      && code.(start + 5) = code.(start + 1)
    then begin
      slots.(!nhosts) <- code.(start + 4);
      tags.(!nhosts) <- code.(start + 2);
      incr nhosts
    end
    else simple := false
  done;
  (* two order_by statements fall back: the interpreter keeps the last
     one that produced a number, which a single-column plan cannot *)
  if !simple && !orders <= 1 then
    Some
      {
        sw_sub = sub;
        sw_col = col;
        sw_const = konst;
        sw_ncmp = !ncmp;
        sw_order_col = !order_col;
        sw_hosts =
          { slots = Array.sub slots 0 !nhosts; tags = Array.sub tags 0 !nhosts };
      }
  else None

(* Clear verdict byte [s] unless [ok], without a branch on [ok]: the
   sweep's compares fall either way at random across servers, so a
   branch would be mispredicted about as often as it is taken. *)
let[@inline] keep_if (qualified : Bytes.t) s ok =
  Bytes.unsafe_set qualified s
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get qualified s) land Bool.to_int ok))

(* Rows [lo, hi), one pass per compare down the column: [qualified]
   ends '\001' for servers every logical statement accepted ('\000'
   otherwise, with absent monitor/security data counting as a failed
   compare — the fault-means-false rule), and [order] receives the
   order_by key per server, [neg_infinity] where its column has no data
   (the "order key not found" value).  Only the range is written, so a
   caller can sweep a snapshot block by block and stop early. *)
let run_sweep sw (c : columns) ~lo ~hi ~(qualified : Bytes.t)
    ~(order : float array) =
  if
    lo < 0 || hi < lo || hi > c.n
    || hi > Bytes.length qualified
    || hi > Array.length order
  then invalid_arg "Bytecode.run_sweep: row range out of bounds";
  Bytes.fill qualified lo (hi - lo) '\001';
  for k = 0 to sw.sw_ncmp - 1 do
    let sub = Array.unsafe_get sw.sw_sub k in
    let col = Array.unsafe_get sw.sw_col k in
    let y = Array.unsafe_get sw.sw_const k in
    if col < sys_field_count then
      for s = lo to hi - 1 do
        keep_if qualified s
          (cmp_holds sub (Bigarray.Array2.unsafe_get c.sys col s) y)
      done
    else if col = col_sec_level then
      for s = lo to hi - 1 do
        keep_if qualified s
          (Bigarray.Array1.unsafe_get c.has_sec s <> 0
          && cmp_holds sub (Bigarray.Array1.unsafe_get c.sec_level s) y)
      done
    else begin
      let data = if col = col_net_delay then c.net_delay else c.net_bw in
      for s = lo to hi - 1 do
        keep_if qualified s
          (Bigarray.Array1.unsafe_get c.has_net s <> 0
          && cmp_holds sub (Bigarray.Array1.unsafe_get data s) y)
      done
    end
  done;
  let col = sw.sw_order_col in
  if col >= 0 then
    if col < sys_field_count then
      for s = lo to hi - 1 do
        Array.unsafe_set order s (Bigarray.Array2.unsafe_get c.sys col s)
      done
    else if col = col_sec_level then
      for s = lo to hi - 1 do
        Array.unsafe_set order s
          (if Bigarray.Array1.unsafe_get c.has_sec s = 0 then neg_infinity
           else Bigarray.Array1.unsafe_get c.sec_level s)
      done
    else begin
      let data = if col = col_net_delay then c.net_delay else c.net_bw in
      for s = lo to hi - 1 do
        Array.unsafe_set order s
          (if Bigarray.Array1.unsafe_get c.has_net s = 0 then neg_infinity
           else Bigarray.Array1.unsafe_get data s)
      done
    end

(* ------------------------------------------------------------------ *)
(* Static validation & dataflow verification                           *)
(* ------------------------------------------------------------------ *)

type verify_error = { stmt : int; pc : int; reason : string }

let verify_error_to_string e =
  if e.stmt < 0 then Printf.sprintf "program: %s" e.reason
  else Printf.sprintf "statement %d, pc %d: %s" e.stmt e.pc e.reason

exception Verify of verify_error

let vfail ~stmt ~pc fmt =
  Printf.ksprintf (fun reason -> raise (Verify { stmt; pc; reason })) fmt

(* Operand checkers of the structural pass, one per operand kind.  They
   are top-level functions of the instruction's position, so checking a
   program builds no closure: [validate] runs on every compile, and
   allocates nothing unless it fails. *)
let check_reg p ~stmt ~pc r =
  if r < 0 || r >= p.nregs then vfail ~stmt ~pc "register %d out of range" r

let check_const p ~stmt ~pc i =
  if i < 0 || i >= Array.length p.consts then
    vfail ~stmt ~pc "constant index %d out of range" i

let check_pool p ~stmt ~pc i =
  if i < 0 || i >= Array.length p.pool then
    vfail ~stmt ~pc "pool index %d out of range" i

let check_temp p ~stmt ~pc t =
  if t < 0 || t >= p.ntemps then vfail ~stmt ~pc "temp %d out of range" t

let check_uparam ~stmt ~pc u =
  if u < 0 || u >= uparam_count then vfail ~stmt ~pc "uparam %d out of range" u

let check_column ~stmt ~pc c =
  if c < 0 || c > col_sec_level then vfail ~stmt ~pc "column %d out of range" c

let check_fn p ~stmt ~pc f =
  if f < 0 || f >= Array.length p.fns then
    vfail ~stmt ~pc "function index %d out of range" f

let check_sub ~stmt ~pc s =
  if s < 0 || s > 5 then vfail ~stmt ~pc "comparison sub-opcode %d" s

(* The slice [pc, stop) of statement [stmt], one instruction at a time:
   a known opcode, all of its operands inside the slice, each in range.
   Returns [setus] plus the slice's SETU sites. *)
let rec walk p ~stmt pc stop setus =
  if pc >= stop then setus
  else begin
    let code = p.code in
    let op = code.(pc) in
    let width = op_width op in
    if width = 0 then vfail ~stmt ~pc "bad opcode %d" op;
    if pc + width > stop then vfail ~stmt ~pc "truncated instruction";
    (match op with
    | 0 ->
      check_reg p ~stmt ~pc code.(pc + 1);
      check_const p ~stmt ~pc code.(pc + 2)
    | 1 ->
      check_reg p ~stmt ~pc code.(pc + 1);
      check_pool p ~stmt ~pc code.(pc + 2)
    | 2 ->
      check_reg p ~stmt ~pc code.(pc + 1);
      check_column ~stmt ~pc code.(pc + 2);
      check_pool p ~stmt ~pc code.(pc + 3)
    | 3 -> check_reg p ~stmt ~pc code.(pc + 1)
    | 4 | 5 | 6 | 7 | 8 | 12 | 13 ->
      check_reg p ~stmt ~pc code.(pc + 1);
      check_reg p ~stmt ~pc code.(pc + 2);
      check_reg p ~stmt ~pc code.(pc + 3)
    | 9 ->
      check_reg p ~stmt ~pc code.(pc + 1);
      check_reg p ~stmt ~pc code.(pc + 2)
    | 10 ->
      check_reg p ~stmt ~pc code.(pc + 1);
      check_fn p ~stmt ~pc code.(pc + 2);
      check_pool p ~stmt ~pc code.(pc + 3);
      check_reg p ~stmt ~pc code.(pc + 4)
    | 11 ->
      check_reg p ~stmt ~pc code.(pc + 1);
      check_sub ~stmt ~pc code.(pc + 2);
      check_reg p ~stmt ~pc code.(pc + 3);
      check_reg p ~stmt ~pc code.(pc + 4)
    | 14 | 18 ->
      check_reg p ~stmt ~pc code.(pc + 1);
      check_temp p ~stmt ~pc code.(pc + 2);
      check_pool p ~stmt ~pc code.(pc + 3)
    | 15 ->
      check_temp p ~stmt ~pc code.(pc + 1);
      check_reg p ~stmt ~pc code.(pc + 2)
    | 16 ->
      check_reg p ~stmt ~pc code.(pc + 1);
      check_uparam ~stmt ~pc code.(pc + 2);
      check_pool p ~stmt ~pc code.(pc + 3)
    | 17 ->
      check_uparam ~stmt ~pc code.(pc + 1);
      check_reg p ~stmt ~pc code.(pc + 2)
    | 19 -> check_pool p ~stmt ~pc code.(pc + 1)
    | _ (* 20, CMPC *) ->
      check_reg p ~stmt ~pc code.(pc + 1);
      check_sub ~stmt ~pc code.(pc + 2);
      check_column ~stmt ~pc code.(pc + 3);
      check_pool p ~stmt ~pc code.(pc + 4);
      check_const p ~stmt ~pc code.(pc + 5));
    walk p ~stmt (pc + width) stop (if op = 17 then setus + 1 else setus)
  end

(* Structural pass: every operand of every instruction in range for the
   program's declared sizes, comparison sub-opcodes in 0..5, statement
   arrays consistent, the uparam log sized for every SETU site and
   [has_uparams] admitting them (the flag gates the per-run [uset]
   reset, so understating it would leak parameters across servers).
   The interpreter trusts operands unconditionally (see [exec]); this
   walk, run once at compile time, is what earns that trust. *)
let structural p =
  let n = nstmts p in
  if
    Array.length p.stmt_stop <> n
    || Array.length p.stmt_reg <> n
    || Array.length p.stmt_line <> n
    || Array.length p.stmt_logical <> n
    || Array.length p.stmt_order_by <> n
  then vfail ~stmt:(-1) ~pc:(-1) "ragged statement arrays";
  let setus = ref 0 in
  for s = 0 to n - 1 do
    let start = p.stmt_start.(s) and stop = p.stmt_stop.(s) in
    if start < 0 || stop < start || stop > Array.length p.code then
      vfail ~stmt:s ~pc:start "bad statement slice [%d, %d)" start stop;
    check_reg p ~stmt:s ~pc:start p.stmt_reg.(s);
    setus := walk p ~stmt:s start stop !setus
  done;
  if !setus > p.nulog then
    vfail ~stmt:(-1) ~pc:(-1) "uparam log holds %d entries but code has %d SETU sites"
      p.nulog !setus;
  if !setus > 0 && not p.has_uparams then
    vfail ~stmt:(-1) ~pc:(-1)
      "has_uparams is false but code contains SETU: the per-run uset reset \
       would be skipped and parameters would leak across servers"

(* The interpreter trusts every operand to be in bounds (see [exec]);
   this pass, run once at compile time, is what earns that trust. *)
let validate p =
  match structural p with
  | () -> ()
  | exception Verify e ->
    invalid_arg ("Bytecode.validate: " ^ verify_error_to_string e)

(* Abstract value a register may hold at a program point.  [Bot] is
   never-written; [Any] covers the dynamically-typed loads (temps, user
   parameters, UVAR), whose tag is only known at run time. *)
type abs = Bot | Vnum | Vaddr | Any

(* Dataflow pass over one statement slice.  Slices are straight-line
   (the bytecode has no branches), so "on every path" is a single
   left-to-right scan with one twist: an unconditional FAULT ends every
   path through the slice, making the instructions after it dead — they
   stay bounds-checked by [structural] but carry no dataflow
   obligations, and the statement's result register need not be written
   (the fault-means-false rule supplies the statement's outcome).

   Judgments checked on live code:
   - init-before-use: no instruction reads a register never written
     earlier in the same slice (registers are per-statement scratch;
     values do not flow across statements);
   - numeric soundness: the arithmetic operands (ADD/SUB/MUL/DIV/POW/
     NEG/CALL) are abstractly numeric — produced by a number-producing
     opcode or refined through a NUMCHK.  This is exactly the check
     that makes [Compile]'s static NUMCHK elision safe;
   - result coverage: a slice no path of which faults leaves its
     declared result register written. *)
let dataflow p =
  let code = p.code in
  let tags = Array.make (max p.nregs 1) Bot in
  let scan ~stmt start stop =
    Array.fill tags 0 (Array.length tags) Bot;
    let read ~pc r =
      if tags.(r) = Bot then
        vfail ~stmt ~pc "register %d read before initialization" r
    in
    let readnum ~pc r =
      read ~pc r;
      match tags.(r) with
      | Vnum -> ()
      | Vaddr ->
        vfail ~stmt ~pc
          "register %d holds an address in a numeric operand (missing NUMCHK)"
          r
      | Any ->
        vfail ~stmt ~pc
          "register %d may hold an address in a numeric operand (missing \
           NUMCHK)"
          r
      | Bot -> assert false
    in
    let def r v = tags.(r) <- v in
    let rec go pc =
      if pc >= stop then false
      else
        let arg k = code.(pc + k) in
        match code.(pc) with
        | 0 (* CONST *) -> def (arg 1) Vnum; go (pc + 3)
        | 1 (* ADDR *) -> def (arg 1) Vaddr; go (pc + 3)
        | 2 (* LOAD *) -> def (arg 1) Vnum; go (pc + 4)
        | 3 (* NUMCHK *) ->
          read ~pc (arg 1);
          def (arg 1) Vnum;
          go (pc + 2)
        | (4 | 5 | 6 | 7 | 8) (* arith *) ->
          readnum ~pc (arg 2); readnum ~pc (arg 3);
          def (arg 1) Vnum;
          go (pc + 4)
        | 9 (* NEG *) -> readnum ~pc (arg 2); def (arg 1) Vnum; go (pc + 3)
        | 10 (* CALL *) -> readnum ~pc (arg 4); def (arg 1) Vnum; go (pc + 5)
        | 11 (* CMP *) ->
          read ~pc (arg 3); read ~pc (arg 4);
          def (arg 1) Vnum;
          go (pc + 5)
        | (12 | 13) (* AND/OR *) ->
          read ~pc (arg 2); read ~pc (arg 3);
          def (arg 1) Vnum;
          go (pc + 4)
        | 14 (* LOADT *) -> def (arg 1) Any; go (pc + 4)
        | 15 (* STORET *) -> read ~pc (arg 2); go (pc + 3)
        | 16 (* GETU *) -> def (arg 1) Any; go (pc + 4)
        | 17 (* SETU *) -> read ~pc (arg 2); go (pc + 3)
        | 18 (* UVAR *) -> def (arg 1) Any; go (pc + 4)
        | 19 (* FAULT *) -> true (* every path ends here: the rest is dead *)
        | 20 (* CMPC *) -> def (arg 1) Vnum; go (pc + 6)
        | op -> vfail ~stmt ~pc "bad opcode %d" op
    in
    let faults = go start in
    if not faults && tags.(p.stmt_reg.(stmt)) = Bot then
      vfail ~stmt ~pc:stop
        "result register %d never written on the non-faulting path"
        p.stmt_reg.(stmt)
  in
  for s = 0 to nstmts p - 1 do
    scan ~stmt:s p.stmt_start.(s) p.stmt_stop.(s)
  done

(* Sweep-plan precondition: of a program [sweep_of] admits, only the
   CMPC compares, the order column and the constant host log are ever
   evaluated ([run_sweep] plus the caller's replay of [sweep_hosts]).
   So the program must carry exactly that traffic and nothing the plan
   would drop: no temp reads (LOADT, UVAR), no user-parameter reads
   (GETU), and every SETU must close its own statement
   [ADDR r a; SETU u r], logging the address the plan recorded.  The
   walk covers the whole code array, not only the statement slices, so
   nothing hides between them.  Write-only STORETs are fine: the
   admitted [order_by = <column>] shape stores a temp nothing
   observes. *)
let sweep_preconditions p =
  match sweep_of p with
  | None -> ()
  | Some _ ->
    let code = p.code in
    let closes_own_addr pc =
      pc >= 3
      && code.(pc - 3) = 1
      && code.(pc - 2) = code.(pc + 2)
      &&
      let own = ref false in
      for s = 0 to nstmts p - 1 do
        if p.stmt_start.(s) = pc - 3 && p.stmt_stop.(s) = pc + 3 then
          own := true
      done;
      !own
    in
    let rec scan pc =
      if pc < Array.length code then begin
        let op = code.(pc) in
        let width = op_width op in
        if width = 0 then vfail ~stmt:(-1) ~pc "bad opcode %d" op;
        if pc + width > Array.length code then
          vfail ~stmt:(-1) ~pc "truncated instruction";
        if op = 14 || op = 16 || op = 18 then
          vfail ~stmt:(-1) ~pc
            "sweep plan admitted a program that reads a temp or user \
             parameter (opcode %d)"
            op;
        if op = 17 && not (closes_own_addr pc) then
          vfail ~stmt:(-1) ~pc
            "sweep plan admitted a SETU that does not log its own \
             statement's ADDR";
        scan (pc + width)
      end
    in
    scan 0

(* Full verification: the structural bounds pass plus the per-slice
   abstract interpretation and the sweep precondition.  [Compile]
   applies {!validate} on every program and this full pass behind its
   [?verify] debug flag; the smartlint "bytecode" rule runs it over the
   checked-in fixture programs. *)
let verify p =
  match
    structural p;
    dataflow p;
    sweep_preconditions p
  with
  | () -> Ok ()
  | exception Verify e -> Error e
