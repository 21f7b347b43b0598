(* Export reachability (rule: reach).

   Every value a lib interface exports must be named by some module
   other than its own: another lib module, or a root (a binary, a
   benchmark, an example, a tool).  An export nothing else names is an
   error: it is dead code the interface keeps alive.  An export only
   tests name is an error too: the tests pin behaviour no program uses,
   so the value belongs with the tests (test/oracle) or has a caller to
   find.

   Exports come from the interfaces' cmti files, nested modules
   included ("Counter.incr" in metrics.mli).  References come from every
   expression of every scanned unit, resolved by [Callgraph.references]
   — top-level [let ()] bodies and local helpers count, not only the
   top-level bindings the call graph keeps as nodes.  Units are keyed by
   library, so test/oracle/selection.ml naming a value does not count
   as lib/core/selection.ml naming its own.

   Constructors get the same two tiers.  Every constructor of a variant
   a lib interface declares must be built ([Texp_construct]) by some
   production unit, its own included; a pattern that matches it does not
   count.  One nothing builds is dead, and so is one only tests build:
   production never produces the value, so every branch that matches it
   is dead code.  A construction is keyed by the type its constructor's
   result names, resolved as a reference is.  A variant an interface
   re-exports ([type t = M.t = A | B]) is checked once, at [M.t]. *)

type tier = Production | Test

(* [f prefix item] over every item of [i]'s signature, nested module
   signatures included, [prefix] naming the enclosing modules
   ("Counter." in metrics.mli). *)
let signature_items (i : Project.iface) f =
  let rec items prefix (sg : Typedtree.signature) =
    List.concat_map
      (fun (item : Typedtree.signature_item) ->
        match item.Typedtree.sig_desc with
        | Typedtree.Tsig_module
            {
              md_id = Some id;
              md_type = { mty_desc = Typedtree.Tmty_signature sg; _ };
              _;
            } ->
          items (prefix ^ Ident.name id ^ ".") sg
        | desc -> f prefix desc)
      sg.Typedtree.sig_items
  in
  items "" i.Project.signature

let exports i =
  signature_items i (fun prefix -> function
    | Typedtree.Tsig_value vd -> [ (prefix ^ Ident.name vd.Typedtree.val_id, vd) ]
    | _ -> [])

(* The variants [i] declares: (type path in the unit, the type path a
   re-export's manifest names, constructors). *)
let variants i =
  signature_items i (fun prefix -> function
    | Typedtree.Tsig_type (_, decls) ->
      List.filter_map
        (fun (td : Typedtree.type_declaration) ->
          match td.Typedtree.typ_kind with
          | Typedtree.Ttype_variant cds ->
            let manifest =
              match td.Typedtree.typ_manifest with
              | Some ct -> (
                match Types.get_desc ct.Typedtree.ctyp_type with
                | Types.Tconstr (path, _, _) -> Some path
                | _ -> None)
              | None -> None
            in
            Some (prefix ^ Ident.name td.Typedtree.typ_id, manifest, cds)
          | _ -> None)
        decls
    | _ -> [])

(* The (unit, type path) a type path names from [current]: through the
   library alias module, or else a type of [current] itself (its own
   [t], or a nested module's [Counter.t]). *)
let type_key ~known ~current path =
  let name = Path.name path in
  let ((unit, _) as key) = Callgraph.resolve ~known ~current name in
  if known unit then key else (current, name)

(* Every constructor application in [c]: ((unit, type path), name). *)
let constructions ~known (c : Project.cmt) =
  match c.Project.structure with
  | None -> []
  | Some str ->
    let aliases = Callgraph.aliases str in
    let found = ref [] in
    let open Tast_iterator in
    let expr sub (e : Typedtree.expression) =
      (match e.Typedtree.exp_desc with
      | Typedtree.Texp_construct (_, cd, _) -> (
        match Types.get_desc cd.Types.cstr_res with
        | Types.Tconstr (path, _, _) ->
          found :=
            ( type_key ~known ~current:c.Project.modname
                (Callgraph.expand aliases path),
              cd.Types.cstr_name )
            :: !found
        | _ -> ())
      | _ -> ());
      default_iterator.expr sub e
    in
    let it = { default_iterator with expr } in
    it.structure it str;
    !found

(* The best tier at which [keys_of] yields each key over [callers]:
   [Production] once any production unit yields it. *)
let tally ~callers ~is_test keys_of =
  let seen = Hashtbl.create 4096 in
  List.iter
    (fun (c : Project.cmt) ->
      let tier = if is_test c.Project.source then Test else Production in
      List.iter
        (fun key ->
          match Hashtbl.find_opt seen key with
          | Some Production -> ()
          | Some Test | None -> Hashtbl.replace seen key tier)
        (keys_of c))
    callers;
  Hashtbl.find_opt seen

let diag (i : Project.iface) (loc : Location.t) fmt =
  Printf.ksprintf
    (Diagnostic.make ~rule:"reach" ~severity:Diagnostic.Error
       ~file:i.Project.mli ~line:loc.Location.loc_start.Lexing.pos_lnum)
    fmt

(* [callers] are every scanned implementation, lib and roots alike;
   [is_test] tells which source files only count as tests. *)
let check ~ifaces ~callers ~is_test =
  let known = Callgraph.known_units callers in
  let named =
    tally ~callers ~is_test (fun c ->
        List.filter
          (fun (unit, _) -> not (String.equal unit c.Project.modname))
          (Callgraph.references ~known c))
  in
  let declared = List.map (fun i -> (i, variants i)) ifaces in
  let reexports = Hashtbl.create 16 in
  List.iter
    (fun ((i : Project.iface), vs) ->
      List.iter
        (fun (ty, manifest, _) ->
          Option.iter
            (fun path ->
              Hashtbl.replace reexports (i.Project.unit, ty)
                (type_key ~known ~current:i.Project.unit path))
            manifest)
        vs)
    declared;
  let built =
    tally ~callers ~is_test (fun c ->
        List.map
          (fun (ty, name) ->
            (Option.value (Hashtbl.find_opt reexports ty) ~default:ty, name))
          (constructions ~known c))
  in
  List.concat_map
    (fun ((i : Project.iface), vs) ->
      let modname = Callgraph.module_name_of_source i.Project.mli in
      List.filter_map
        (fun (value, (vd : Typedtree.value_description)) ->
          match named (i.Project.unit, value) with
          | Some Production -> None
          | Some Test ->
            Some
              (diag i vd.Typedtree.val_loc
                 "%s.%s is named only by tests: give it a production caller \
                  or move it next to them"
                 modname value)
          | None ->
            Some
              (diag i vd.Typedtree.val_loc
                 "%s.%s is named by no module but its own: drop it from the \
                  interface"
                 modname value))
        (exports i)
      @ List.concat_map
          (fun (ty, manifest, cds) ->
            if Option.is_some manifest then []
            else
              List.filter_map
                (fun (cd : Typedtree.constructor_declaration) ->
                  let name = Ident.name cd.Typedtree.cd_id in
                  match built ((i.Project.unit, ty), name) with
                  | Some Production -> None
                  | Some Test ->
                    Some
                      (diag i cd.Typedtree.cd_loc
                         "%s.%s is built only by tests: production never \
                          produces it, so every branch matching it is dead"
                         modname name)
                  | None ->
                    Some
                      (diag i cd.Typedtree.cd_loc
                         "%s.%s is built by no module: drop it and the \
                          branches matching it"
                         modname name))
                cds)
          vs)
    declared
