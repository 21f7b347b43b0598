(* Whole-program call graph over the scanned typed trees, and the
   reference resolution it rests on.

   Nodes are top-level value bindings ([let f ... = ...] directly inside
   a structure), keyed by (compilation unit, value name).  The unit is
   the cmt's own module name, which dune qualifies with the library:
   lib/proto/frame.ml compiles as "Smart_proto__Frame", so a module of
   one library never shadows a same-named module of another
   (test/oracle/selection.ml is "Smart_oracle__Selection", lib/core's
   is "Smart_core__Selection").

   A reference is resolved from its typed-tree path.  Local module
   aliases ([module C = Smart_core], [let module M = ... in]) are
   expanded first, so "C.Wizard.create" reads as
   "Smart_core.Wizard.create".  The head of the path is then the
   library's alias module, followed by the unit: "Smart_core.Wizard"
   names unit "Smart_core__Wizard" when that unit is known.  Otherwise
   the head itself is the unit ("Smart_proto__Frame.encode", or
   "Stdlib.List.map").  What follows the unit is the value's path inside
   it, nested modules included ("Counter.incr" in "Smart_util__Metrics").
   A path with no module part is a local reference: either to another
   top-level binding of the same unit (an edge) or to a parameter or
   local let (dropped when the index misses).

   Every node carries the alias-expanded path of each identifier its
   body references, with the source line of the reference —
   optional-argument defaults and [let]-bound function values included,
   since the iterator walks the whole binding.  Effect inference (see
   [Effects]) consumes both forms: raw paths to spot sinks, resolved
   (unit, value) pairs for the transitive edges.  The reach rule (see
   [Reach]) resolves every reference of a whole unit, not only those
   inside top-level bindings. *)

type node = {
  unit : string;             (* "Smart_proto__Frame" *)
  modname : string;          (* "Frame" *)
  name : string;             (* "encode" *)
  file : string;             (* root-relative source of the definition *)
  line : int;                (* line of the binding *)
  refs : (string * int) list;
      (* (alias-expanded path, line of the reference), in source order *)
}

type t = {
  nodes : node list;  (* sorted by (file, line) for deterministic output *)
  index : (string * string, node) Hashtbl.t;
  known : string -> bool;  (* is this a scanned compilation unit? *)
}

let module_name_of_source source =
  String.capitalize_ascii
    (Filename.remove_extension (Filename.basename source))

(* The compilation units of [cmts], as a membership test. *)
let known_units (cmts : Project.cmt list) =
  let units = Hashtbl.create 256 in
  List.iter (fun (c : Project.cmt) -> Hashtbl.replace units c.modname ()) cmts;
  Hashtbl.mem units

(* Module aliases bound anywhere in [str], by the alias's unique name. *)
let aliases str =
  let tbl = Hashtbl.create 8 in
  let add id (me : Typedtree.module_expr) =
    match me.Typedtree.mod_desc with
    | Typedtree.Tmod_ident (path, _) ->
      Hashtbl.replace tbl (Ident.unique_name id) path
    | _ -> ()
  in
  let open Tast_iterator in
  let module_binding sub (mb : Typedtree.module_binding) =
    Option.iter (fun id -> add id mb.Typedtree.mb_expr) mb.Typedtree.mb_id;
    default_iterator.module_binding sub mb
  in
  let expr sub (e : Typedtree.expression) =
    (match e.Typedtree.exp_desc with
    | Typedtree.Texp_letmodule (Some id, _, _, me, _) -> add id me
    | _ -> ());
    default_iterator.expr sub e
  in
  let it = { default_iterator with module_binding; expr } in
  it.structure it str;
  tbl

let rec expand aliases = function
  | Path.Pident id as p -> (
    match Hashtbl.find_opt aliases (Ident.unique_name id) with
    | Some target -> expand aliases target
    | None -> p)
  | Path.Pdot (p, s) -> Path.Pdot (expand aliases p, s)
  | p -> p

(* "Smart_core.Wizard.create" -> ("Smart_core__Wizard", "create") when
   that unit is known; "Smart_proto__Frame.encode" -> ("Smart_proto__Frame",
   "encode"); "helper" -> ([current], "helper"). *)
let resolve ~known ~current path =
  match String.index_opt path '.' with
  | None -> (current, path)
  | Some i -> (
    let head = String.sub path 0 i in
    let rest = String.sub path (i + 1) (String.length path - i - 1) in
    match String.index_opt rest '.' with
    | Some j when known (head ^ "__" ^ String.sub rest 0 j) ->
      ( head ^ "__" ^ String.sub rest 0 j,
        String.sub rest (j + 1) (String.length rest - j - 1) )
    | _ -> (head, rest))

(* Alias-expanded path of every identifier [iter] visits, with its line. *)
let collect_refs aliases iter =
  let refs = ref [] in
  let open Tast_iterator in
  let expr sub (e : Typedtree.expression) =
    (match e.Typedtree.exp_desc with
    | Typedtree.Texp_ident (path, _, _) ->
      refs :=
        ( Path.name (expand aliases path),
          e.Typedtree.exp_loc.Location.loc_start.Lexing.pos_lnum )
        :: !refs
    | _ -> ());
    default_iterator.expr sub e
  in
  iter { default_iterator with expr };
  List.rev !refs

(* Every reference anywhere in [c], resolved to (unit, value path). *)
let references ~known (c : Project.cmt) =
  match c.structure with
  | None -> []
  | Some str ->
    collect_refs (aliases str) (fun it -> it.Tast_iterator.structure it str)
    |> List.map (fun (path, _) -> resolve ~known ~current:c.modname path)

let nodes_of_cmt (c : Project.cmt) =
  match c.structure with
  | None -> []
  | Some str ->
    let aliases = aliases str in
    let modname = module_name_of_source c.source in
    List.concat_map
      (fun (item : Typedtree.structure_item) ->
        match item.Typedtree.str_desc with
        | Typedtree.Tstr_value (_, vbs) ->
          List.filter_map
            (fun (vb : Typedtree.value_binding) ->
              match vb.Typedtree.vb_pat.Typedtree.pat_desc with
              | Typedtree.Tpat_var (id, _) ->
                Some
                  {
                    unit = c.modname;
                    modname;
                    name = Ident.name id;
                    file = c.source;
                    line =
                      vb.Typedtree.vb_loc.Location.loc_start.Lexing.pos_lnum;
                    refs =
                      collect_refs aliases (fun it ->
                          it.Tast_iterator.value_binding it vb);
                  }
              | _ -> None)
            vbs
        | _ -> [])
      str.Typedtree.str_items

let build cmts =
  let nodes = List.concat_map nodes_of_cmt cmts in
  let index = Hashtbl.create (List.length nodes) in
  (* later bindings shadow earlier ones of the same name, matching OCaml
     scoping for references that follow both *)
  List.iter (fun n -> Hashtbl.replace index (n.unit, n.name) n) nodes;
  { nodes; index; known = known_units cmts }

(* Internal callees of [n]: references that resolve to a node of the
   graph, with the line of the referencing site.  Self-edges are dropped
   (recursion is harmless to the BFS). *)
let callees t (n : node) =
  List.filter_map
    (fun (path, line) ->
      match
        Hashtbl.find_opt t.index (resolve ~known:t.known ~current:n.unit path)
      with
      | Some callee
        when not
               (String.equal callee.unit n.unit
               && String.equal callee.name n.name) ->
        Some (callee, line)
      | _ -> None)
    n.refs
