(* Reference evaluator implementing the yacc action semantics of
   Fig 4.2, the oracle the bytecode interpreter is held to.

   - every line is a statement; a statement is *logical* iff its main
     operator (through parentheses) is a comparison or boolean connective;
   - the server qualifies iff every logical statement evaluates truthy
     (the yacc action's  server_ok *= $2);
   - an evaluation fault (undefined variable, division by zero, type
     mismatch) inside a logical statement makes that statement false;
     faults in non-logical statements are recorded as warnings;
   - assignments to user-side parameters accumulate the preferred/denied
     host lists; assignments to anything else create temp variables;
   - server-side variables are read-only bindings supplied by the caller
     (the wizard binds them from the status databases). *)

open Smart_lang

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
  uparams : (string * Value.t) list;  (* in assignment order *)
  faults : fault list;
}

type env = {
  lookup : binding;
  temps : (string, Value.t) Hashtbl.t;
  mutable uparams_rev : (string * Value.t) list;
}

exception Fault of string

let fault fmt = Fmt.kstr (fun m -> raise (Fault m)) fmt

let num = function
  | Value.Num f -> f
  | Value.Addr a -> fault "address %s used in numeric context" a

let find_uparam env name =
  List.assoc_opt name env.uparams_rev

let rec eval env (e : Ast.expr) : Value.t =
  match e with
  | Ast.Number f -> Value.Num f
  | Ast.Netaddr a -> Value.Addr a
  | Ast.Paren inner -> eval env inner
  | Ast.Var name -> eval_var env name
  | Ast.Assign (name, rhs) -> eval_assign env name rhs
  | Ast.Neg inner -> Value.Num (-.num (eval env inner))
  | Ast.Call (fname, arg) ->
    (match Builtins.find fname with
    | None -> fault "unknown function %s" fname
    | Some f ->
      let v = num (eval env arg) in
      let r = f v in
      if Float.is_nan r then fault "%s(%g) is undefined" fname v
      else Value.Num r)
  | Ast.Arith (op, a, b) ->
    let x = num (eval env a) in
    let y = num (eval env b) in
    (match op with
    | Ast.Add -> Value.Num (x +. y)
    | Ast.Sub -> Value.Num (x -. y)
    | Ast.Mul -> Value.Num (x *. y)
    | Ast.Div ->
      if y = 0.0 then fault "division by 0" else Value.Num (x /. y)
    | Ast.Pow ->
      let r = x ** y in
      if Float.is_nan r then fault "%g ^ %g is undefined" x y
      else Value.Num r)
  | Ast.Cmp (op, a, b) -> eval_cmp env op a b
  | Ast.Logic (op, a, b) ->
    (* no short-circuiting: the yacc actions evaluate both sides *)
    let x = Value.truthy (eval env a) in
    let y = Value.truthy (eval env b) in
    Value.of_bool (match op with Ast.And -> x && y | Ast.Or -> x || y)

and eval_var env name =
  if Vars.is_user_side name then
    match find_uparam env name with
    | Some v -> v
    | None -> fault "user parameter %s not set" name
  else
    match env.lookup name with
    | Some v -> v
    | None ->
      (match Hashtbl.find_opt env.temps name with
      | Some v -> v
      | None -> fault "undefined variable %s" name)

and eval_assign env name rhs =
  if Vars.is_server_side name then
    fault "cannot assign to server-side variable %s" name
  else if Builtins.is_builtin name then
    fault "cannot assign to built-in function %s" name
  else begin
    let v =
      if Vars.is_user_side name then
        (* address context: a bare identifier names a host *)
        match rhs with
        | Ast.Var candidate
          when (not (Vars.is_server_side candidate))
               && (not (Vars.is_user_side candidate))
               && Hashtbl.find_opt env.temps candidate = None ->
          Value.Addr candidate
        | _ -> eval env rhs
      else eval env rhs
    in
    if Vars.is_user_side name then
      env.uparams_rev <- (name, v) :: env.uparams_rev
    else Hashtbl.replace env.temps name v;
    v
  end

and eval_cmp env op a b =
  let va = eval env a in
  let vb = eval env b in
  match (va, vb) with
  | Value.Num x, Value.Num y ->
    Value.of_bool
      (match op with
      | Ast.Lt -> x < y
      | Ast.Le -> x <= y
      | Ast.Gt -> x > y
      | Ast.Ge -> x >= y
      | Ast.Eq -> x = y
      | Ast.Ne -> x <> y)
  | Value.Addr x, Value.Addr y ->
    (match op with
    | Ast.Eq -> Value.of_bool (String.equal x y)
    | Ast.Ne -> Value.of_bool (not (String.equal x y))
    | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge ->
      fault "addresses cannot be ordered")
  | Value.Num _, Value.Addr _ | Value.Addr _, Value.Num _ ->
    (match op with
    | Ast.Eq -> Value.of_bool false
    | Ast.Ne -> Value.of_bool true
    | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge ->
      fault "cannot order a number against an address")

let run ?(lookup : binding = fun _ -> None) (program : Ast.program) : outcome =
  let env = { lookup; temps = Hashtbl.create 8; uparams_rev = [] } in
  let statements =
    List.map
      (fun (st : Ast.statement) ->
        let logical = Ast.is_logical st.Ast.expr in
        let value =
          try Ok (eval env st.Ast.expr) with Fault m -> Error m
        in
        { line = st.Ast.line; logical; value })
      program
  in
  let faults =
    List.filter_map
      (fun s ->
        match s.value with
        | Error message -> Some { line = s.line; message }
        | Ok _ -> None)
      statements
  in
  let qualified =
    List.for_all
      (fun s ->
        if not s.logical then true
        else match s.value with Ok v -> Value.truthy v | Error _ -> false)
      statements
  in
  { qualified; statements; uparams = List.rev env.uparams_rev; faults }

(* Host strings mentioned by the user-side parameters.  The
   preferred/denied assignments are non-logical, so they do not depend
   on any particular server. *)
let host_lists (outcome : outcome) =
  let extract pred =
    List.filter_map
      (fun (name, v) ->
        if pred name then
          match v with
          | Value.Addr host -> Some host
          | Value.Num _ -> None
        else None)
      outcome.uparams
  in
  (* preferred, in order *)
  ( extract (String.starts_with ~prefix:"user_preferred_host"),
    extract (String.starts_with ~prefix:"user_denied_host") )

(* Rebuild an outcome from a finished bytecode run: statement tags -2
   (fault), -1 (number), >= 0 (address, pool index); the uparam log in
   execution order. *)
let of_bytecode (p : Bytecode.program) (st : Bytecode.state) : outcome =
  let statements =
    List.init (Bytecode.nstmts p) (fun s ->
        let value =
          match st.Bytecode.stag.(s) with
          | -2 -> Error st.Bytecode.serr.(s)
          | -1 -> Ok (Value.Num st.Bytecode.sval.(s))
          | tag -> Ok (Value.Addr p.Bytecode.pool.(tag))
        in
        {
          line = p.Bytecode.stmt_line.(s);
          logical = p.Bytecode.stmt_logical.(s);
          value;
        })
  in
  let faults =
    List.filter_map
      (fun (s : statement_result) ->
        match s.value with
        | Error message -> Some { line = s.line; message }
        | Ok _ -> None)
      statements
  in
  let uparams =
    List.init st.Bytecode.ulog_len (fun k ->
        let name = List.nth Vars.user_side st.Bytecode.ulog_slot.(k) in
        let v =
          if st.Bytecode.ulog_tag.(k) >= 0 then
            Value.Addr p.Bytecode.pool.(st.Bytecode.ulog_tag.(k))
          else Value.Num st.Bytecode.ulog_val.(k)
        in
        (name, v))
  in
  { qualified = Bytecode.qualified p st; statements; uparams; faults }
