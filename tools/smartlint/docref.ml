(* Documentation cross-references (rule: doc).

   Every [{!...}] reference in a lib interface must name a declaration
   of the interfaces: a value, type, constructor, field, exception,
   module or module type.  A reference resolves, in this order, against
   the interface's own signature (nested modules included), a module of
   the same library ("Probe.adaptive" from lib/core), or a library and
   one of its modules ("Smart_util.Sketch.merge", or "Smart_lang"
   alone).  One kind prefix ("val:", "type:", ...) is ignored.  The
   compiler never reads these references, so this is the only check
   that a renamed or deleted declaration left none dangling.

   A doc comment attached to no declaration is an error too, unless it
   opens its signature (the module's preamble) or is a heading
   ("{1 ...}").  Deleting a [val] and not its comment leaves one
   behind, and odoc renders it as a stray paragraph. *)

(* The names a signature declares, and the signatures of its modules.
   A module whose type is not written out (an alias, a functor, a named
   module type) is [opaque]: any name below it is accepted. *)
type scope = {
  names : (string, unit) Hashtbl.t;
  modules : (string, scope) Hashtbl.t;
  opaque : bool;
}

let opaque_scope = { names = Hashtbl.create 1; modules = Hashtbl.create 1; opaque = true }

let rec scope_of (sg : Typedtree.signature) =
  let names = Hashtbl.create 32 and modules = Hashtbl.create 4 in
  let name id = Hashtbl.replace names (Ident.name id) () in
  let add_module id (mty : Typedtree.module_type) =
    Hashtbl.replace modules (Ident.name id)
      (match mty.mty_desc with
      | Typedtree.Tmty_signature sg -> scope_of sg
      | _ -> opaque_scope)
  in
  let add_type (decl : Typedtree.type_declaration) =
    name decl.typ_id;
    match decl.typ_kind with
    | Typedtree.Ttype_variant constructors ->
      List.iter (fun (c : Typedtree.constructor_declaration) -> name c.cd_id) constructors
    | Typedtree.Ttype_record labels ->
      List.iter (fun (l : Typedtree.label_declaration) -> name l.ld_id) labels
    | Typedtree.Ttype_abstract | Typedtree.Ttype_open -> ()
  in
  List.iter
    (fun (item : Typedtree.signature_item) ->
      match item.sig_desc with
      | Typedtree.Tsig_value vd -> name vd.val_id
      | Typedtree.Tsig_type (_, decls) | Typedtree.Tsig_typesubst decls ->
        List.iter add_type decls
      | Typedtree.Tsig_typext ext ->
        List.iter
          (fun (c : Typedtree.extension_constructor) -> name c.ext_id)
          ext.tyext_constructors
      | Typedtree.Tsig_exception ext -> name ext.tyexn_constructor.ext_id
      | Typedtree.Tsig_module { md_id = Some id; md_type; _ } -> add_module id md_type
      | Typedtree.Tsig_recmodule mds ->
        List.iter
          (fun (md : Typedtree.module_declaration) ->
            Option.iter (fun id -> add_module id md.md_type) md.md_id)
          mds
      | Typedtree.Tsig_modtype { mtd_id; _ } | Typedtree.Tsig_modtypesubst { mtd_id; _ } ->
        name mtd_id
      | Typedtree.Tsig_class classes ->
        List.iter (fun (c : Typedtree.class_description) -> name c.ci_id_class) classes
      | Typedtree.Tsig_class_type classes ->
        List.iter
          (fun (c : Typedtree.class_type_declaration) -> name c.ci_id_class_type)
          classes
      | Typedtree.Tsig_module { md_id = None; _ }
      | Typedtree.Tsig_modsubst _ | Typedtree.Tsig_open _
      | Typedtree.Tsig_include _ | Typedtree.Tsig_attribute _ -> ())
    sg.sig_items;
  { names; modules; opaque = false }

let rec resolves scope = function
  | [] -> true
  | _ when scope.opaque -> true
  | [ name ] -> Hashtbl.mem scope.names name || Hashtbl.mem scope.modules name
  | m :: rest ->
    (match Hashtbl.find_opt scope.modules m with
    | Some inner -> resolves inner rest
    | None -> false)

(* "Smart_core__Wizard" is module "Wizard" of library "Smart_core"; a
   unit with no "__" is a library of its own name. *)
let split_unit unit =
  let rec find i =
    if i + 1 >= String.length unit then None
    else if Char.equal unit.[i] '_' && Char.equal unit.[i + 1] '_' then Some i
    else find (i + 1)
  in
  match find 0 with
  | Some i -> (String.sub unit 0 i, String.sub unit (i + 2) (String.length unit - i - 2))
  | None -> (unit, unit)

(* The [{!...}] references of [text], each with its line. *)
let references text =
  let n = String.length text in
  let rec scan i line acc =
    if i + 1 >= n then List.rev acc
    else if Char.equal text.[i] '\n' then scan (i + 1) (line + 1) acc
    else if Char.equal text.[i] '{' && Char.equal text.[i + 1] '!' then
      match String.index_from_opt text (i + 2) '}' with
      | None -> List.rev acc
      | Some close ->
        scan (close + 1) line ((String.sub text (i + 2) (close - i - 2), line) :: acc)
    else scan (i + 1) line acc
  in
  scan 0 1 []

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

(* The text of a floating doc comment ([ocaml.text]), if [attr] is one. *)
let floating_text (attr : Parsetree.attribute) =
  match (attr.attr_name.txt, attr.attr_payload) with
  | ( "ocaml.text",
      Parsetree.PStr
        [
          {
            pstr_desc =
              Parsetree.Pstr_eval
                ({ pexp_desc = Parsetree.Pexp_constant (Pconst_string (text, _, _)); _ }, _);
            _;
          };
        ] ) ->
    Some text
  | _ -> None

let heading text =
  let text = String.trim text in
  String.length text > 1
  && Char.equal text.[0] '{'
  && match text.[1] with '0' .. '9' -> true | _ -> false

(* The line of every floating doc comment of [sg] and its nested
   signatures that neither opens its signature nor is a heading. *)
let rec strays (sg : Typedtree.signature) =
  List.concat
    (List.mapi
       (fun index (item : Typedtree.signature_item) ->
         match item.sig_desc with
         | Typedtree.Tsig_attribute attr -> (
           match floating_text attr with
           | Some text when index > 0 && not (heading text) ->
             [ attr.attr_loc.Location.loc_start.Lexing.pos_lnum ]
           | _ -> [])
         | Typedtree.Tsig_module
             { md_type = { mty_desc = Typedtree.Tmty_signature inner; _ }; _ } ->
           strays inner
         | _ -> [])
       sg.sig_items)

let check ~root ~(ifaces : Project.iface list) =
  let libraries = Hashtbl.create 16 in
  let scopes =
    List.map
      (fun (i : Project.iface) ->
        let lib, modname = split_unit i.unit and scope = scope_of i.signature in
        let modules =
          match Hashtbl.find_opt libraries lib with
          | Some modules -> modules
          | None ->
            let modules = Hashtbl.create 16 in
            Hashtbl.replace libraries lib modules;
            modules
        in
        Hashtbl.replace modules modname scope;
        (i, lib, scope))
      ifaces
  in
  let module_of lib m =
    Option.bind (Hashtbl.find_opt libraries lib) (fun mods -> Hashtbl.find_opt mods m)
  in
  let resolves_from ~lib ~own path =
    resolves own path
    ||
    match path with
    | [] -> true
    | m :: rest when Option.is_some (module_of lib m) ->
      resolves (Option.get (module_of lib m)) rest
    | l :: rest when Hashtbl.mem libraries l ->
      (match rest with
      | [] -> true
      | m :: rest ->
        (match module_of l m with Some scope -> resolves scope rest | None -> false))
    | _ -> false
  in
  List.concat_map
    (fun ((i : Project.iface), lib, own) ->
      List.map
        (fun line ->
          Diagnostic.make ~rule:"doc" ~severity:Diagnostic.Error ~file:i.mli
            ~line
            "doc comment attached to no declaration: attach it, make it a \
             heading ({1 ...}) or drop it")
        (strays i.signature)
      @
      match read_file (Filename.concat root i.mli) with
      | exception Sys_error _ -> []
      | text ->
        List.filter_map
          (fun (reference, line) ->
            let name =
              match String.index_opt reference ':' with
              | Some colon ->
                String.sub reference (colon + 1) (String.length reference - colon - 1)
              | None -> reference
            in
            let path = String.split_on_char '.' (String.trim name) in
            if resolves_from ~lib ~own path then None
            else
              Some
                (Diagnostic.make ~rule:"doc" ~severity:Diagnostic.Error
                   ~file:i.mli ~line
                   (Printf.sprintf
                      "{!%s} names no declaration of this interface, its \
                       library's modules or another library's"
                      reference)))
          (references text))
    scopes
