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
   as lib/core/selection.ml naming its own. *)

type tier = Production | Test

let exports (i : Project.iface) =
  let rec items prefix (sg : Typedtree.signature) =
    List.concat_map
      (fun (item : Typedtree.signature_item) ->
        match item.Typedtree.sig_desc with
        | Typedtree.Tsig_value vd ->
          [ (prefix ^ Ident.name vd.Typedtree.val_id, vd) ]
        | Typedtree.Tsig_module
            {
              md_id = Some id;
              md_type = { mty_desc = Typedtree.Tmty_signature sg; _ };
              _;
            } ->
          items (prefix ^ Ident.name id ^ ".") sg
        | _ -> [])
      sg.Typedtree.sig_items
  in
  items "" i.Project.signature

(* [callers] are every scanned implementation, lib and roots alike;
   [is_test] tells which source files only count as tests. *)
let check ~ifaces ~callers ~is_test =
  let known = Callgraph.known_units callers in
  let named = Hashtbl.create 4096 in
  List.iter
    (fun (c : Project.cmt) ->
      let tier = if is_test c.Project.source then Test else Production in
      List.iter
        (fun ((unit, _) as target) ->
          if not (String.equal unit c.Project.modname) then
            match Hashtbl.find_opt named target with
            | Some Production -> ()
            | Some Test | None -> Hashtbl.replace named target tier)
        (Callgraph.references ~known c))
    callers;
  List.concat_map
    (fun (i : Project.iface) ->
      let modname = Callgraph.module_name_of_source i.Project.mli in
      List.filter_map
        (fun (value, (vd : Typedtree.value_description)) ->
          let line = vd.Typedtree.val_loc.Location.loc_start.Lexing.pos_lnum in
          let diag severity fmt =
            Printf.ksprintf
              (Diagnostic.make ~rule:"reach" ~severity ~file:i.Project.mli
                 ~line)
              fmt
          in
          match Hashtbl.find_opt named (i.Project.unit, value) with
          | Some Production -> None
          | Some Test ->
            Some
              (diag Diagnostic.Error
                 "%s.%s is named only by tests: give it a production caller \
                  or move it next to them"
                 modname value)
          | None ->
            Some
              (diag Diagnostic.Error
                 "%s.%s is named by no module but its own: drop it from the \
                  interface"
                 modname value))
        (exports i))
    ifaces
