(* Ast -> Bytecode translation.

   Emission order is evaluation order, so the reference evaluator's
   side-effect and fault sequencing carries over directly:

   - [Eval] checks "is this a number?" on the left operand *before*
     evaluating the right one, so every arithmetic operand is followed
     by a NUMCHK at its own evaluation point;
   - statically-detectable faults (assignment to a server-side variable
     or builtin, unknown function, read of a never-assigned temp) become
     FAULT ops *at the position where Eval would raise* — code before
     them still runs, code after them is dead;
   - a temp gets its fixed slot when its first assignment site is
     compiled (after the right-hand side, mirroring Eval's store
     happening after evaluation), so a read compiled earlier than every
     assignment is statically unresolvable, exactly like Eval's
     runtime miss;
   - the bare-identifier-names-a-host rule ([user_preferred_host1 = x])
     depends on whether [x] is bound as a temp *at runtime*; when an
     assignment site precedes, UVAR decides per server, otherwise the
     identifier is a plain address constant.

   Registers are scratch within one statement (the counter resets per
   statement; results are read out before the next statement runs), so
   [nregs] is the widest statement's need, not the program's. *)

(* Constants, strings, functions and temps are few per program, so each
   table is a list searched from its newest entry rather than a hash
   table built per compile; an entry's index is its position counted
   from the oldest, the order in which it was first seen. *)
type emitter = {
  mutable code : int array;
  mutable len : int;
  mutable consts_rev : float list;
  mutable nconsts : int;
  mutable pool_rev : string list;
  mutable npool : int;
  mutable fn_names_rev : string list;
  mutable fns_rev : (float -> float) list;
  mutable nfns : int;
  mutable temps_rev : string list;
  mutable ntemps : int;
  mutable reg : int;
  mutable nregs : int;
  mutable nulog : int;
  mutable has_uparams : bool;
}

let create_emitter () =
  {
    code = Array.make 64 0;
    len = 0;
    consts_rev = [];
    nconsts = 0;
    pool_rev = [];
    npool = 0;
    fn_names_rev = [];
    fns_rev = [];
    nfns = 0;
    temps_rev = [];
    ntemps = 0;
    reg = 0;
    nregs = 0;
    nulog = 0;
    has_uparams = false;
  }

let emit e v =
  if e.len >= Array.length e.code then begin
    let fresh = Array.make (2 * Array.length e.code) 0 in
    Array.blit e.code 0 fresh 0 e.len;
    e.code <- fresh
  end;
  e.code.(e.len) <- v;
  e.len <- e.len + 1

let emit2 e a b = emit e a; emit e b

let emit3 e a b c = emit e a; emit e b; emit e c

let emit4 e a b c d = emit e a; emit e b; emit e c; emit e d

(* Index of [x] in a table of [n] entries listed newest first; -1 when
   absent. *)
let rec find equal x n = function
  | [] -> -1
  | y :: rest -> if equal y x then n - 1 else find equal x (n - 1) rest

(* Constants are equal when their bits are: -0.0 is not 0.0, and a NaN
   matches only its own bits.  Nothing is boxed. *)
let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let const_idx e f =
  let i = find same_bits f e.nconsts e.consts_rev in
  if i >= 0 then i
  else begin
    let i = e.nconsts in
    e.consts_rev <- f :: e.consts_rev;
    e.nconsts <- i + 1;
    i
  end

let pool_idx e s =
  let i = find String.equal s e.npool e.pool_rev in
  if i >= 0 then i
  else begin
    let i = e.npool in
    e.pool_rev <- s :: e.pool_rev;
    e.npool <- i + 1;
    i
  end

let fn_idx e name f =
  let i = find String.equal name e.nfns e.fn_names_rev in
  if i >= 0 then i
  else begin
    let i = e.nfns in
    e.fn_names_rev <- name :: e.fn_names_rev;
    e.fns_rev <- f :: e.fns_rev;
    e.nfns <- i + 1;
    i
  end

let temp_slot e name = find String.equal name e.ntemps e.temps_rev

(* A temp's slot, given at its first assignment site. *)
let temp_idx e name =
  let t = temp_slot e name in
  if t >= 0 then t
  else begin
    let t = e.ntemps in
    e.temps_rev <- name :: e.temps_rev;
    e.ntemps <- t + 1;
    t
  end

let alloc_reg e =
  let r = e.reg in
  e.reg <- r + 1;
  if e.reg > e.nregs then e.nregs <- e.reg;
  r

(* Fault messages are built with [^] rather than [Printf.sprintf]: the
   compiler runs per request on the wizard's cold path and sprintf was a
   third of its profile.  Spellings must stay byte-identical to Eval's. *)
let undefined_variable e name = pool_idx e ("undefined variable " ^ name)

(* The message of a column read, by column id: built once here, not on
   every LOAD and CMPC. *)
let column_messages =
  Array.init (Bytecode.col_sec_level + 1) (fun col ->
      let name =
        if col < Bytecode.sys_field_count then Bytecode.sys_fields.(col)
        else if col = Bytecode.col_net_delay then "monitor_network_delay"
        else if col = Bytecode.col_net_bw then "monitor_network_bw"
        else "host_security_level"
      in
      "undefined variable " ^ name)

let undefined_column e col = pool_idx e column_messages.(col)

(* Compile-time type of the value a register will hold: most operators
   only produce numbers, so the NUMCHK guarding each arithmetic operand
   can be elided when the operand is statically numeric.  [`Other]
   covers addresses and the dynamically-typed loads (temps, user
   parameters); their NUMCHK stays and reproduces Eval's fault. *)
type static = Snum | Sother

let numchk e (r, static) = if static <> Snum then emit2 e 3 r

let rec compile_expr e (expr : Ast.expr) : int * static =
  match expr with
  | Ast.Number f ->
    let r = alloc_reg e in
    emit3 e 0 r (const_idx e f);
    (r, Snum)
  | Ast.Netaddr a ->
    let r = alloc_reg e in
    emit3 e 1 r (pool_idx e a);
    (r, Sother)
  | Ast.Paren inner -> compile_expr e inner
  | Ast.Var name -> compile_var e name
  | Ast.Assign (name, rhs) -> compile_assign e name rhs
  | Ast.Neg inner ->
    let a = compile_expr e inner in
    numchk e a;
    let r = alloc_reg e in
    emit3 e 9 r (fst a);
    (r, Snum)
  | Ast.Call (fname, arg) ->
    (match Builtins.find fname with
    | None ->
      (* Eval faults before evaluating the argument *)
      emit2 e 19 (pool_idx e ("unknown function " ^ fname));
      (alloc_reg e, Snum)
    | Some f ->
      let a = compile_expr e arg in
      numchk e a;
      let r = alloc_reg e in
      emit e 10;
      emit4 e r (fn_idx e fname f) (pool_idx e fname) (fst a);
      (r, Snum))
  | Ast.Arith (op, a, b) ->
    let ra = compile_expr e a in
    numchk e ra;
    let rb = compile_expr e b in
    numchk e rb;
    let r = alloc_reg e in
    let opcode =
      match op with
      | Ast.Add -> 4
      | Ast.Sub -> 5
      | Ast.Mul -> 6
      | Ast.Div -> 7
      | Ast.Pow -> 8
    in
    emit4 e opcode r (fst ra) (fst rb);
    (r, Snum)
  | Ast.Cmp (op, a, b) ->
    let ra, _ = compile_expr e a in
    let rb, _ = compile_expr e b in
    let r = alloc_reg e in
    let sub =
      match op with
      | Ast.Lt -> 0
      | Ast.Le -> 1
      | Ast.Gt -> 2
      | Ast.Ge -> 3
      | Ast.Eq -> 4
      | Ast.Ne -> 5
    in
    emit e 11;
    emit4 e r sub ra rb;
    (r, Snum)
  | Ast.Logic (op, a, b) ->
    let ra, _ = compile_expr e a in
    let rb, _ = compile_expr e b in
    let r = alloc_reg e in
    emit4 e (match op with Ast.And -> 12 | Ast.Or -> 13) r ra rb;
    (r, Snum)

and compile_var e name : int * static =
  let r = alloc_reg e in
  if Vars.is_user_side name then begin
    emit4 e 16 r (Bytecode.uparam_slot name)
      (pool_idx e ("user parameter " ^ name ^ " not set"));
    (r, Sother)
  end
  else begin
    match Bytecode.column_of_var name with
    | Some col ->
      emit4 e 2 r col (undefined_column e col);
      (r, Snum)
    | None ->
      let t = temp_slot e name in
      if t >= 0 then begin
        emit4 e 14 r t (undefined_variable e name);
        (r, Sother)
      end
      else begin
        (* no assignment site precedes: Eval would miss at runtime *)
        emit2 e 19 (undefined_variable e name);
        (r, Snum)
      end
  end

and compile_assign e name rhs : int * static =
  if Vars.is_server_side name then begin
    emit2 e 19
      (pool_idx e ("cannot assign to server-side variable " ^ name));
    (alloc_reg e, Snum)
  end
  else if Builtins.is_builtin name then begin
    emit2 e 19
      (pool_idx e ("cannot assign to built-in function " ^ name));
    (alloc_reg e, Snum)
  end
  else if Vars.is_user_side name then begin
    let u = Bytecode.uparam_slot name in
    let r =
      (* address context: a bare identifier names a host — unless it is
         bound as a temp at runtime (Eval checks the temp table
         dynamically; UVAR reproduces that when a site precedes) *)
      match rhs with
      | Ast.Var candidate
        when (not (Vars.is_server_side candidate))
             && not (Vars.is_user_side candidate) ->
        let t = temp_slot e candidate in
        let r = alloc_reg e in
        if t < 0 then emit3 e 1 r (pool_idx e candidate)
        else emit4 e 18 r t (pool_idx e candidate);
        (r, Sother)
      | _ -> compile_expr e rhs
    in
    emit3 e 17 u (fst r);
    e.nulog <- e.nulog + 1;
    e.has_uparams <- true;
    r
  end
  else begin
    let r = compile_expr e rhs in
    emit3 e 15 (temp_idx e name) (fst r);
    r
  end

(* Statement-level superinstruction: the overwhelmingly common shape
   [column CMP number] (either operand order) collapses to one CMPC op —
   a column read, a constant compare, one dispatch.  Operand order flips
   the comparison ([0.2 < x] is [x > 0.2]); the fault point is the
   column read in both cases, which is where Eval faults too (a number
   literal cannot fault). *)
let swap_sub = function 0 -> 2 | 1 -> 3 | 2 -> 0 | 3 -> 1 | s -> s

let sub_of = function
  | Ast.Lt -> 0
  | Ast.Le -> 1
  | Ast.Gt -> 2
  | Ast.Ge -> 3
  | Ast.Eq -> 4
  | Ast.Ne -> 5

let cmpc e col sub f =
  let r = alloc_reg e in
  emit e 20;
  emit e r;
  emit e sub;
  emit e col;
  emit e (undefined_column e col);
  emit e (const_idx e f);
  r

let compile_stmt e (expr : Ast.expr) =
  match expr with
  | Ast.Cmp (op, Ast.Var name, Ast.Number f) -> (
    match Bytecode.column_of_var name with
    | Some col -> cmpc e col (sub_of op) f
    | None -> fst (compile_expr e expr))
  | Ast.Cmp (op, Ast.Number f, Ast.Var name) -> (
    match Bytecode.column_of_var name with
    | Some col -> cmpc e col (swap_sub (sub_of op)) f
    | None -> fst (compile_expr e expr))
  | _ -> fst (compile_expr e expr)

let is_order_by (st : Ast.statement) =
  match st.Ast.expr with
  | Ast.Assign (name, _) -> String.equal name "order_by"
  | Ast.Number _ | Ast.Netaddr _ | Ast.Var _ | Ast.Arith _ | Ast.Cmp _
  | Ast.Logic _ | Ast.Call _ | Ast.Neg _ | Ast.Paren _ ->
    false

let rec fill_rev a i = function
  | [] -> ()
  | x :: rest ->
    a.(i) <- x;
    fill_rev a (i - 1) rest

(* The array of a table of [n] entries listed newest first. *)
let array_of_rev n rev =
  match rev with
  | [] -> [||]
  | newest :: _ ->
    let a = Array.make n newest in
    fill_rev a (n - 1) rev;
    a

let program (ast : Ast.program) : Bytecode.program =
  let e = create_emitter () in
  let n = List.length ast in
  let stmt_start = Array.make n 0
  and stmt_stop = Array.make n 0
  and stmt_reg = Array.make n 0
  and stmt_line = Array.make n 0
  and stmt_logical = Array.make n false
  and stmt_order_by = Array.make n false in
  List.iteri
    (fun i (st : Ast.statement) ->
      e.reg <- 0;
      stmt_start.(i) <- e.len;
      stmt_reg.(i) <- compile_stmt e st.Ast.expr;
      stmt_stop.(i) <- e.len;
      stmt_line.(i) <- st.Ast.line;
      stmt_logical.(i) <- Ast.is_logical st.Ast.expr;
      stmt_order_by.(i) <- is_order_by st)
    ast;
  {
    Bytecode.code = Array.sub e.code 0 e.len;
    stmt_start;
    stmt_stop;
    stmt_reg;
    stmt_line;
    stmt_logical;
    stmt_order_by;
    consts = array_of_rev e.nconsts e.consts_rev;
    pool = array_of_rev e.npool e.pool_rev;
    fns = array_of_rev e.nfns e.fns_rev;
    nregs = e.nregs;
    ntemps = e.ntemps;
    nulog = e.nulog;
    has_uparams = e.has_uparams;
    has_order_by = Array.exists Fun.id stmt_order_by;
  }

let program ast =
  let p = program ast in
  (* earn the interpreter's unsafe operand accesses *)
  Bytecode.validate p;
  p
