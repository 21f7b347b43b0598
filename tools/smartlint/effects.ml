(* Whole-program effect inference (rule: effects).

   The per-file determinism and io-purity rules flag a sink *where it
   appears*; this pass flags the sans-IO bindings that reach one
   *indirectly* — through a helper call, a [let]-bound function value,
   or an optional-argument default — and prints the full call chain so
   the root cause is one read away:

       fx_chain.ml:12: error [effects] Fx_chain.entry reaches a wall
       clock: Fx_chain.entry -> Fx_chain_util.hidden_now ->
       Stdlib.Sys.time

   Seeds are the sink references of [Rules.effect_sink] (wall clocks,
   stdlib Random, Hashtbl.hash, Digest, Unix, channel IO, environment
   reads).  Effects propagate backwards over the [Callgraph] edges; a
   binding whose own body references the sink directly is *not*
   re-reported here — the direct rules already own that line — so every
   effects diagnostic names a chain of at least two hops before the
   sink.

   The BFS is per entry binding, breadth-first over callees in source
   order, so the reported chain is a shortest one and deterministic. *)

type finding = {
  entry : Callgraph.node;
  chain : string list;  (* "Mod.value" hops, entry first, sink last *)
  category : string;    (* [Rules.effect_sink] label *)
  line : int;           (* line of the first hop's reference in [entry] *)
}

let node_label (n : Callgraph.node) = n.Callgraph.modname ^ "." ^ n.Callgraph.name

(* First sink referenced directly by [n]'s body, if any. *)
let direct_sink (n : Callgraph.node) =
  List.find_map
    (fun (path, _) ->
      Option.map (fun cat -> (path, cat)) (Rules.effect_sink path))
    n.Callgraph.refs

(* Shortest call chain from [entry] to any node with a direct sink,
   excluding the zero-hop case (entry itself referencing the sink). *)
let find_chain graph entry =
  let seen = Hashtbl.create 16 in
  let key (n : Callgraph.node) = (n.Callgraph.unit, n.Callgraph.name) in
  Hashtbl.replace seen (key entry) ();
  (* queue items: (node, reversed chain of hops so far, line of first hop) *)
  let q = Queue.create () in
  List.iter
    (fun (callee, line) ->
      if not (Hashtbl.mem seen (key callee)) then begin
        Hashtbl.replace seen (key callee) ();
        Queue.add (callee, [ node_label callee ], line) q
      end)
    (Callgraph.callees graph entry);
  let rec bfs () =
    if Queue.is_empty q then None
    else
      let n, rev_chain, line = Queue.pop q in
      match direct_sink n with
      | Some (sink_path, category) ->
        Some
          {
            entry;
            chain =
              (node_label entry :: List.rev rev_chain) @ [ sink_path ];
            category;
            line;
          }
      | None ->
        List.iter
          (fun (callee, _) ->
            if not (Hashtbl.mem seen (key callee)) then begin
              Hashtbl.replace seen (key callee) ();
              Queue.add (callee, node_label callee :: rev_chain, line) q
            end)
          (Callgraph.callees graph n);
        bfs ()
  in
  bfs ()

(* Report every sans-IO binding reaching a sink only transitively.
   [sans_io] decides whether a node's defining file is in scope. *)
let check graph ~sans_io =
  List.filter_map
    (fun (n : Callgraph.node) ->
      if not (sans_io n.Callgraph.file) then None
      else if Option.is_some (direct_sink n) then None
      else
        match find_chain graph n with
        | None -> None
        | Some f ->
          Some
            (Diagnostic.make ~rule:"effects" ~severity:Diagnostic.Error
               ~file:n.Callgraph.file ~line:f.line
               (Printf.sprintf "%s reaches a %s through its calls: %s"
                  (node_label n) f.category
                  (String.concat " -> " f.chain))))
    graph.Callgraph.nodes
