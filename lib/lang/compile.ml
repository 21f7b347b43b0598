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

type emitter = {
  mutable code : int array;
  mutable len : int;
  consts_tbl : (int64, int) Hashtbl.t;  (* keyed by bits: -0.0 /= 0.0, nan ok *)
  mutable consts_rev : float list;
  mutable nconsts : int;
  pool_tbl : (string, int) Hashtbl.t;
  mutable pool_rev : string list;
  mutable npool : int;
  fns_tbl : (string, int) Hashtbl.t;
  mutable fns_rev : (float -> float) list;
  mutable nfns : int;
  temps : (string, int) Hashtbl.t;
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
    consts_tbl = Hashtbl.create 16;
    consts_rev = [];
    nconsts = 0;
    pool_tbl = Hashtbl.create 16;
    pool_rev = [];
    npool = 0;
    fns_tbl = Hashtbl.create 8;
    fns_rev = [];
    nfns = 0;
    temps = Hashtbl.create 8;
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

let const_idx e f =
  let bits = Int64.bits_of_float f in
  match Hashtbl.find_opt e.consts_tbl bits with
  | Some i -> i
  | None ->
    let i = e.nconsts in
    Hashtbl.replace e.consts_tbl bits i;
    e.consts_rev <- f :: e.consts_rev;
    e.nconsts <- i + 1;
    i

let pool_idx e s =
  match Hashtbl.find_opt e.pool_tbl s with
  | Some i -> i
  | None ->
    let i = e.npool in
    Hashtbl.replace e.pool_tbl s i;
    e.pool_rev <- s :: e.pool_rev;
    e.npool <- i + 1;
    i

let fn_idx e name f =
  match Hashtbl.find_opt e.fns_tbl name with
  | Some i -> i
  | None ->
    let i = e.nfns in
    Hashtbl.replace e.fns_tbl name i;
    e.fns_rev <- f :: e.fns_rev;
    e.nfns <- i + 1;
    i

let alloc_reg e =
  let r = e.reg in
  e.reg <- r + 1;
  if e.reg > e.nregs then e.nregs <- e.reg;
  r

(* Fault messages are built with [^] rather than [Printf.sprintf]: the
   compiler runs per request on the wizard's cold path and sprintf was a
   third of its profile.  Spellings must stay byte-identical to Eval's. *)
let undefined_variable e name = pool_idx e ("undefined variable " ^ name)

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
      emit4 e 2 r col (undefined_variable e name);
      (r, Snum)
    | None ->
      (match Hashtbl.find_opt e.temps name with
      | Some t ->
        emit4 e 14 r t (undefined_variable e name);
        (r, Sother)
      | None ->
        (* no assignment site precedes: Eval would miss at runtime *)
        emit2 e 19 (undefined_variable e name);
        (r, Snum))
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
             && not (Vars.is_user_side candidate) -> (
        match Hashtbl.find_opt e.temps candidate with
        | None ->
          let r = alloc_reg e in
          emit3 e 1 r (pool_idx e candidate);
          (r, Sother)
        | Some t ->
          let r = alloc_reg e in
          emit4 e 18 r t (pool_idx e candidate);
          (r, Sother))
      | _ -> compile_expr e rhs
    in
    emit3 e 17 u (fst r);
    e.nulog <- e.nulog + 1;
    e.has_uparams <- true;
    r
  end
  else begin
    let r = compile_expr e rhs in
    let t =
      match Hashtbl.find_opt e.temps name with
      | Some t -> t
      | None ->
        let t = e.ntemps in
        Hashtbl.replace e.temps name t;
        e.ntemps <- t + 1;
        t
    in
    emit3 e 15 t (fst r);
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

let fuse_stmt e (expr : Ast.expr) =
  let cmpc op name f ~swapped =
    match Bytecode.column_of_var name with
    | None -> None
    | Some col ->
      let sub = if swapped then swap_sub (sub_of op) else sub_of op in
      let r = alloc_reg e in
      emit e 20;
      emit e r;
      emit e sub;
      emit e col;
      emit e (undefined_variable e name);
      emit e (const_idx e f);
      Some (r, Snum)
  in
  match expr with
  | Ast.Cmp (op, Ast.Var name, Ast.Number f) -> cmpc op name f ~swapped:false
  | Ast.Cmp (op, Ast.Number f, Ast.Var name) -> cmpc op name f ~swapped:true
  | _ -> None

let compile_stmt e (expr : Ast.expr) =
  match fuse_stmt e expr with Some r -> r | None -> compile_expr e expr

let is_order_by (st : Ast.statement) =
  match st.Ast.expr with
  | Ast.Assign (name, _) -> String.equal name "order_by"
  | Ast.Number _ | Ast.Netaddr _ | Ast.Var _ | Ast.Arith _ | Ast.Cmp _
  | Ast.Logic _ | Ast.Call _ | Ast.Neg _ | Ast.Paren _ ->
    false

let program (ast : Ast.program) : Bytecode.program =
  let e = create_emitter () in
  let stmts =
    List.map
      (fun (st : Ast.statement) ->
        e.reg <- 0;
        let start = e.len in
        let r, _ = compile_stmt e st.Ast.expr in
        (start, e.len, r, st.Ast.line, Ast.is_logical st.Ast.expr,
         is_order_by st))
      ast
  in
  let n = List.length stmts in
  let stmt_start = Array.make (max n 1) 0
  and stmt_stop = Array.make (max n 1) 0
  and stmt_reg = Array.make (max n 1) 0
  and stmt_line = Array.make (max n 1) 0
  and stmt_logical = Array.make (max n 1) false
  and stmt_order_by = Array.make (max n 1) false in
  List.iteri
    (fun i (start, stop, r, line, logical, ob) ->
      stmt_start.(i) <- start;
      stmt_stop.(i) <- stop;
      stmt_reg.(i) <- r;
      stmt_line.(i) <- line;
      stmt_logical.(i) <- logical;
      stmt_order_by.(i) <- ob)
    stmts;
  {
    Bytecode.code = Array.sub e.code 0 e.len;
    stmt_start = Array.sub stmt_start 0 n;
    stmt_stop = Array.sub stmt_stop 0 n;
    stmt_reg = Array.sub stmt_reg 0 n;
    stmt_line = Array.sub stmt_line 0 n;
    stmt_logical = Array.sub stmt_logical 0 n;
    stmt_order_by = Array.sub stmt_order_by 0 n;
    consts = Array.of_list (List.rev e.consts_rev);
    pool = Array.of_list (List.rev e.pool_rev);
    fns = Array.of_list (List.rev e.fns_rev);
    nregs = e.nregs;
    ntemps = e.ntemps;
    nulog = e.nulog;
    has_uparams = e.has_uparams;
    has_order_by =
      List.exists (fun (_, _, _, _, _, ob) -> ob) stmts;
  }

let program ast =
  let p = program ast in
  (* earn the interpreter's unsafe operand accesses *)
  Bytecode.validate p;
  p
