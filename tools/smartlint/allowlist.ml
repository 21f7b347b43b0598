(* The checked-in exception list (lint.allow).  One entry per line:

       <rule> <file>[:<line>] <justification...>

   Blank lines and lines starting with '#' are comments.  An entry
   suppresses diagnostics of exactly that rule in exactly that file (and,
   when a line number is given, exactly that line).  Every entry is
   expected to suppress something: entries that matched nothing during a
   run are reported so the list cannot silently rot. *)

type entry = {
  rule : string;
  file : string;
  line : int option;        (* None = any line in [file] *)
  justification : string;
  source_line : int;        (* position in the allow file, for reporting *)
  mutable used : bool;
}

type t = { path : string; entries : entry list }

let empty path = { path; entries = [] }

let parse_entry ~source_line text =
  match String.index_opt text ' ' with
  | None -> Error "expected: <rule> <file>[:<line>] <justification>"
  | Some i ->
    let rule = String.sub text 0 i in
    let rest = String.trim (String.sub text (i + 1) (String.length text - i - 1)) in
    let target, justification =
      match String.index_opt rest ' ' with
      | None -> (rest, "")
      | Some j ->
        ( String.sub rest 0 j,
          String.trim (String.sub rest (j + 1) (String.length rest - j - 1)) )
    in
    if String.equal target "" then Error "missing file target"
    else
      let file, line =
        match String.rindex_opt target ':' with
        | None -> (target, None)
        | Some k -> (
          let tail = String.sub target (k + 1) (String.length target - k - 1) in
          match int_of_string_opt tail with
          | Some n -> (String.sub target 0 k, Some n)
          | None -> (target, None))
      in
      Ok { rule; file; line; justification; source_line; used = false }

(* Load [path]; a missing file is an empty allowlist, a malformed line is
   a hard error (the gate must not silently ignore its own config). *)
let load path =
  if not (Sys.file_exists path) then Ok (empty path)
  else begin
    let ic = open_in path in
    let rec read n acc =
      match input_line ic with
      | exception End_of_file -> Ok (List.rev acc)
      | line ->
        let text = String.trim line in
        if String.equal text "" || text.[0] = '#' then read (n + 1) acc
        else (
          match parse_entry ~source_line:n text with
          | Ok e -> read (n + 1) (e :: acc)
          | Error msg ->
            Error (Printf.sprintf "%s:%d: malformed allowlist entry (%s)" path n msg))
    in
    let result = read 1 [] in
    close_in ic;
    match result with
    | Ok entries -> Ok { path; entries }
    | Error _ as e -> e
  end

let size t = List.length t.entries

(* Does some entry cover [d]?  Marks every covering entry as used. *)
let suppresses t (d : Diagnostic.t) =
  List.fold_left
    (fun hit e ->
      if
        String.equal e.rule d.Diagnostic.rule
        && String.equal e.file d.Diagnostic.file
        && match e.line with None -> true | Some l -> l = d.Diagnostic.line
      then (
        e.used <- true;
        true)
      else hit)
    false t.entries

(* Entries of the rules that [ran] that suppressed nothing this run, as
   warn diagnostics against the allow file itself. *)
let unused_entries t ~ran =
  List.filter_map
    (fun e ->
      if e.used || not (ran e.rule) then None
      else
        Some
          (Diagnostic.make ~rule:"allowlist" ~severity:Diagnostic.Warn
             ~file:t.path ~line:e.source_line
             (Printf.sprintf "entry \"%s %s%s\" suppressed nothing" e.rule e.file
                (match e.line with None -> "" | Some l -> ":" ^ string_of_int l))))
    t.entries
