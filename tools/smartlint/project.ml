(* Project-level checks: locating .cmt files under the build tree,
   interface coverage of the source tree, and cross-checking dune
   [libraries] stanzas against what the typed trees actually import. *)

let ( / ) = Filename.concat

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

(* Is [file] under directory [dir] (both root-relative)? *)
let in_dir file dir = starts_with ~prefix:(dir ^ "/") file

(* ------------------------------------------------------------------ *)
(* cmt discovery                                                       *)
(* ------------------------------------------------------------------ *)

(* Recursively collect every file with [suffix] under [path] (dune keeps
   cmts in hidden .objs directories, so the walk must descend into
   dotfiles). *)
let rec find_files ~suffix path =
  match Sys.is_directory path with
  | exception Sys_error _ -> []
  | false -> if Filename.check_suffix path suffix then [ path ] else []
  | true ->
    Sys.readdir path |> Array.to_list
    |> List.concat_map (fun entry -> find_files ~suffix (path / entry))

type cmt = {
  source : string;  (* root-relative source path *)
  modname : string;
      (* compilation unit, library-qualified: "Smart_core__Wizard" *)
  structure : Typedtree.structure option;
  imports : string list;  (* module names this unit references *)
}

type iface = {
  mli : string;  (* root-relative interface path *)
  unit : string;  (* compilation unit, as [cmt.modname] *)
  signature : Typedtree.signature;
}

(* Every cmt (or cmti, by [suffix]) under [dirs] that belongs to a real
   source file — dune-generated alias modules have none — once per
   source, sorted by it. *)
let load ~root ~build_root ~suffix dirs =
  let seen = Hashtbl.create 64 in
  List.concat_map (fun dir -> find_files ~suffix (build_root / dir)) dirs
  |> List.filter_map (fun path ->
         match Cmt_format.read_cmt path with
         | exception _ -> None
         | infos -> (
           match infos.Cmt_format.cmt_sourcefile with
           | Some source
             when Sys.file_exists (root / source)
                  && not (Hashtbl.mem seen source) ->
             Hashtbl.add seen source ();
             Some (source, infos)
           | _ -> None))
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* All implementation cmts for [dirs]. *)
let load_cmts ~root ~build_root dirs =
  load ~root ~build_root ~suffix:".cmt" dirs
  |> List.map (fun (source, infos) ->
         {
           source;
           modname = infos.Cmt_format.cmt_modname;
           structure =
             (match infos.Cmt_format.cmt_annots with
             | Cmt_format.Implementation str -> Some str
             | _ -> None);
           imports = List.map fst infos.Cmt_format.cmt_imports;
         })

(* All interfaces (cmti) for [dirs]. *)
let load_ifaces ~root ~build_root dirs =
  load ~root ~build_root ~suffix:".cmti" dirs
  |> List.filter_map (fun (mli, infos) ->
         match infos.Cmt_format.cmt_annots with
         | Cmt_format.Interface signature ->
           Some { mli; unit = infos.Cmt_format.cmt_modname; signature }
         | _ -> None)

(* ------------------------------------------------------------------ *)
(* Interface coverage (rule: iface)                                    *)
(* ------------------------------------------------------------------ *)

(* Every .ml directly inside a scanned directory must ship a sibling
   .mli: the interface is both documentation and the seam that keeps
   implementation details from leaking across layers. *)
let iface_check ~root dirs =
  List.concat_map
    (fun dir ->
      match Sys.readdir (root / dir) with
      | exception Sys_error _ -> []
      | entries ->
        Array.to_list entries |> List.sort String.compare
        |> List.filter_map (fun entry ->
               if
                 Filename.check_suffix entry ".ml"
                 && not (Sys.file_exists (root / dir / (entry ^ "i")))
               then
                 Some
                   (Diagnostic.make ~rule:"iface" ~severity:Diagnostic.Error
                      ~file:(dir / entry) ~line:1
                      (Printf.sprintf
                         "module has no interface: add %s.mli (every lib module \
                          ships one)"
                         (Filename.remove_extension entry)))
               else None))
    dirs

(* ------------------------------------------------------------------ *)
(* dune [libraries] cross-check (rule: io-purity)                      *)
(* ------------------------------------------------------------------ *)

(* Minimal tokenizer for a dune file: atoms and parens.  Enough to pull
   the [(libraries ...)] field out of a [(library ...)] stanza. *)
let dune_tokens text =
  let n = String.length text in
  let tokens = ref [] in
  let buf = Buffer.create 16 in
  let flush () =
    if Buffer.length buf > 0 then begin
      tokens := Buffer.contents buf :: !tokens;
      Buffer.clear buf
    end
  in
  let i = ref 0 in
  while !i < n do
    (match text.[!i] with
    | '(' | ')' ->
      flush ();
      tokens := String.make 1 text.[!i] :: !tokens
    | ' ' | '\t' | '\n' | '\r' -> flush ()
    | ';' ->
      (* line comment *)
      flush ();
      while !i < n && text.[!i] <> '\n' do
        incr i
      done
    | c -> Buffer.add_char buf c);
    incr i
  done;
  flush ();
  List.rev !tokens

(* The atoms of the first [(libraries ...)] field, at any nesting. *)
let dune_libraries ~root dir =
  let path = root / dir / "dune" in
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in path in
    let len = in_channel_length ic in
    let text = really_input_string ic len in
    close_in ic;
    let rec after_field = function
      | "(" :: "libraries" :: rest -> Some rest
      | _ :: rest -> after_field rest
      | [] -> None
    in
    match after_field (dune_tokens text) with
    | None -> []
    | Some rest ->
      let rec atoms depth acc = function
        | [] -> List.rev acc
        | "(" :: rest -> atoms (depth + 1) acc rest
        | ")" :: rest -> if depth = 0 then List.rev acc else atoms (depth - 1) acc rest
        | atom :: rest -> atoms depth (atom :: acc) rest
      in
      atoms 0 [] rest
  end

(* Library name -> the top-level module a unit imports when it really
   uses that library: the capitalised name, except for the threads
   library, whose module is [Thread]. *)
let library_module = function
  | "threads" | "threads.posix" -> "Thread"
  | lib -> String.capitalize_ascii lib

(* The libraries a sans-IO stanza must not name at all. *)
let io_library = function
  | "unix" | "threads" | "threads.posix" | "smart_realnet" -> true
  | _ -> false

(* Every [lib_dirs] stanza: a library no module of the directory imports
   is a stale dep (the stanza itself is the bug).  A sans-IO stanza must
   not name an IO-bearing library at all, so one that some module does
   import is a live violation (the code-level rule fires as well). *)
let deps_check ~root ~cmts ~sans_io_dirs lib_dirs =
  List.concat_map
    (fun dir ->
      let sans_io = List.exists (String.equal dir) sans_io_dirs in
      List.filter_map
        (fun lib ->
          let modname = library_module lib in
          let imported =
            List.exists
              (fun (c : cmt) ->
                in_dir c.source dir
                && List.exists (String.equal modname) c.imports)
              cmts
          in
          let error message =
            Some
              (Diagnostic.make ~rule:"io-purity" ~severity:Diagnostic.Error
                 ~file:(dir / "dune") ~line:1 message)
          in
          if not imported then
            error
              (Printf.sprintf
                 "stale dune dep: %s lists %s but no module imports %s; drop \
                  it from (libraries)"
                 dir lib modname)
          else if sans_io && io_library lib then
            error
              (Printf.sprintf
                 "sans-IO library depends on %s (and some module imports %s): \
                  move the IO behind lib/realnet"
                 lib modname)
          else None)
        (dune_libraries ~root dir))
    lib_dirs

(* Import-level fallback for files whose typed tree never mentions an
   IO identifier but whose interface still drags one in (e.g. a type
   alias to [Unix.file_descr]).  Only fires when the expression-level
   io-purity check found nothing in that file, so a real use is reported
   once, at its line. *)
let imports_check ~cmts ~already_flagged sans_io_dirs =
  List.filter_map
    (fun (c : cmt) ->
      if not (List.exists (in_dir c.source) sans_io_dirs) then None
      else if List.mem c.source already_flagged then None
      else
        let bad =
          List.filter
            (fun m -> String.equal m "Unix" || starts_with ~prefix:"Smart_realnet" m)
            c.imports
        in
        match bad with
        | [] -> None
        | bad ->
          Some
            (Diagnostic.make ~rule:"io-purity" ~severity:Diagnostic.Error
               ~file:c.source ~line:1
               (Printf.sprintf
                  "sans-IO module imports %s (type-level dependency): layering \
                   violation"
                  (String.concat ", " bad))))
    cmts
