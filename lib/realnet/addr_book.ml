(* Host-name resolution for the real-socket driver: one machine per
   logical host with a zero port shift, or loopback hosts with distinct
   shifts, so the fixed daemon ports (Table 4.2) never collide. *)

type entry = { addr : Unix.inet_addr; port_shift : int }

(* A [pinned] book never asks the system resolver (see [pin]). *)
type t = {
  entries : (string, entry) Hashtbl.t;
  mutable default_shift : int;
  pinned : bool;
}

let create () = { entries = Hashtbl.create 8; default_shift = 0; pinned = false }

let register t ~host ~addr ?(port_shift = 0) () =
  Hashtbl.replace t.entries host { addr; port_shift }

(* Register a loopback pseudo-host with an automatic unique shift. *)
let register_loopback t ~host =
  t.default_shift <- t.default_shift + 1000;
  let entry = { addr = Unix.inet_addr_loopback; port_shift = t.default_shift } in
  Hashtbl.replace t.entries host entry;
  entry.port_shift

(* An IP literal names itself, as the system resolver would answer (the
   wizard daemon addresses requesters this way); any other name missing
   from the book goes to the resolver, shift 0, unless it is pinned. *)
let resolve t ~host ~port =
  match Hashtbl.find_opt t.entries host with
  | Some { addr; port_shift } -> Some (Unix.ADDR_INET (addr, port + port_shift))
  | None ->
    (match Unix.inet_addr_of_string host with
    | addr -> Some (Unix.ADDR_INET (addr, port))
    | exception Failure _ when t.pinned -> None
    | exception Failure _ ->
      (match Unix.getaddrinfo host "" [ Unix.AI_FAMILY Unix.PF_INET ] with
      | { Unix.ai_addr = Unix.ADDR_INET (addr, _); _ } :: _ ->
        Some (Unix.ADDR_INET (addr, port))
      | _ | (exception _) -> None))

let port_shift t ~host =
  match Hashtbl.find_opt t.entries host with
  | Some { port_shift; _ } -> port_shift
  | None -> 0

(* The address a daemon on [host] binds: its entry's, or the wildcard
   when the book has none (one daemon per machine, any interface). *)
let bind_addr t ~host =
  match Hashtbl.find_opt t.entries host with
  | Some { addr; _ } -> addr
  | None -> Unix.inet_addr_any

let pin t ~hosts =
  let entries = Hashtbl.copy t.entries in
  List.iter
    (fun host ->
      match resolve t ~host ~port:0 with
      | Some (Unix.ADDR_INET (addr, shift)) ->
        Hashtbl.replace entries host { addr; port_shift = shift }
      | Some (Unix.ADDR_UNIX _) | None ->
        failwith (Printf.sprintf "cannot resolve host %S" host))
    hosts;
  { entries; default_shift = t.default_shift; pinned = true }
