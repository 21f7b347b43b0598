(* Optional-parameter reachability (rule: knob).

   Every optional parameter of a value a lib interface exports must be
   passed by some application outside the defining unit: [~x:v], or a
   [?x] forward.  A parameter no caller passes is an error: every run
   takes its default, so the default is a constant the signature
   pretends can vary.  One only tests pass is a warning: it doubles the
   configurations the tests cover for a value production never sets.
   Using the function as a value ([List.map M.f], [let g = M.f]) counts
   as passing all of its optional parameters, and a partial application
   ([let g = M.f ~a]) as passing those still in its result's type, since
   the analysis cannot follow where the value goes.

   Exports come from [Reach.exports]; applications from every expression
   of every scanned unit, their heads resolved as [Callgraph.references]
   resolves a reference.  An optional argument the compiler filled with
   [None] because the application was total carries no source location
   and is not a pass. *)

type tier = Production | Test

type use = All | Labels of string list

(* The optional parameters of a value of type [ty], in order. *)
let optionals ty =
  let rec go acc ty =
    match Types.get_desc ty with
    | Types.Tarrow (Asttypes.Optional label, _, rest, _) ->
      go (label :: acc) rest
    | Types.Tarrow (_, _, rest, _) -> go acc rest
    | Types.Tpoly (ty, _) -> go acc ty
    | _ -> List.rev acc
  in
  go [] ty

(* The compiler's [None] for an omitted optional argument sits at
   [Location.none]. *)
let written (e : Typedtree.expression) =
  e.Typedtree.exp_loc.Location.loc_start.Lexing.pos_cnum >= 0

(* Every use of a unit-qualified value in [c]: the optional labels an
   application passes, or [All] for a use as a value. *)
let uses ~known (c : Project.cmt) =
  match c.Project.structure with
  | None -> []
  | Some str ->
    let aliases = Callgraph.aliases str in
    let target path =
      Callgraph.resolve ~known ~current:c.Project.modname
        (Path.name (Callgraph.expand aliases path))
    in
    let found = ref [] in
    let open Tast_iterator in
    let expr sub (e : Typedtree.expression) =
      match e.Typedtree.exp_desc with
      | Typedtree.Texp_apply
          ({ exp_desc = Typedtree.Texp_ident (path, _, _); _ }, args) ->
        let passed =
          List.filter_map
            (function
              | Asttypes.Optional label, Some arg when written arg -> Some label
              | _ -> None)
            args
        in
        (* a partial application leaves its unapplied optional
           parameters in its result's type, for a later application of
           the value to pass *)
        let pending = optionals e.Typedtree.exp_type in
        found := (target path, Labels (passed @ pending)) :: !found;
        List.iter (fun (_, arg) -> Option.iter (sub.expr sub) arg) args
      | Typedtree.Texp_ident (path, _, _) ->
        found := (target path, All) :: !found
      | _ -> default_iterator.expr sub e
    in
    let it = { default_iterator with expr } in
    it.structure it str;
    !found

let check ~ifaces ~callers ~is_test =
  let known = Callgraph.known_units callers in
  let passed = Hashtbl.create 1024 in
  let note key tier =
    match Hashtbl.find_opt passed key with
    | Some Production -> ()
    | Some Test | None -> Hashtbl.replace passed key tier
  in
  List.iter
    (fun (c : Project.cmt) ->
      let tier = if is_test c.Project.source then Test else Production in
      List.iter
        (fun (((unit, _) as target), use) ->
          if not (String.equal unit c.Project.modname) then
            match use with
            | All -> note (target, None) tier
            | Labels labels ->
              List.iter (fun l -> note (target, Some l) tier) labels)
        (uses ~known c))
    callers;
  let tier_of target label =
    match
      (Hashtbl.find_opt passed (target, None),
       Hashtbl.find_opt passed (target, Some label))
    with
    | Some Production, _ | _, Some Production -> Some Production
    | Some Test, _ | _, Some Test -> Some Test
    | None, None -> None
  in
  List.concat_map
    (fun (i : Project.iface) ->
      let modname = Callgraph.module_name_of_source i.Project.mli in
      List.concat_map
        (fun (value, (vd : Typedtree.value_description)) ->
          let line =
            vd.Typedtree.val_loc.Location.loc_start.Lexing.pos_lnum
          in
          List.filter_map
            (fun label ->
              let diag severity fmt =
                Printf.ksprintf
                  (Diagnostic.make ~rule:"knob" ~severity ~file:i.Project.mli
                     ~line)
                  fmt
              in
              match tier_of (i.Project.unit, value) label with
              | Some Production -> None
              | Some Test ->
                Some
                  (diag Diagnostic.Warn
                     "%s.%s ?%s is passed only by tests: production runs \
                      its default"
                     modname value label)
              | None ->
                Some
                  (diag Diagnostic.Error
                     "%s.%s ?%s is passed by no caller outside its module: \
                      make it the value it defaults to"
                     modname value label))
            (optionals vd.Typedtree.val_val.Types.val_type))
        (Reach.exports i))
    ifaces
