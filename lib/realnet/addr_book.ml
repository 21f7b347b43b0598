(* Host-name resolution for the real-socket driver.

   In a real deployment every logical host is a distinct machine and the
   book maps names to IP addresses with a zero port shift.  For
   single-machine integration tests, all "hosts" live on 127.0.0.1 and
   each gets a distinct port shift, so the daemons' fixed port numbers
   (Table 4.2) never collide. *)

type entry = { addr : Unix.inet_addr; port_shift : int }

type t = { entries : (string, entry) Hashtbl.t; mutable default_shift : int }

let create () = { entries = Hashtbl.create 8; default_shift = 0 }

let register t ~host ~addr ?(port_shift = 0) () =
  Hashtbl.replace t.entries host { addr; port_shift }

(* Register a loopback pseudo-host with an automatic unique shift. *)
let register_loopback t ~host =
  t.default_shift <- t.default_shift + 1000;
  let entry =
    { addr = Unix.inet_addr_loopback; port_shift = t.default_shift }
  in
  Hashtbl.replace t.entries host entry;
  entry.port_shift

let resolve t ~host ~port =
  match Hashtbl.find_opt t.entries host with
  | Some { addr; port_shift } -> Some (Unix.ADDR_INET (addr, port + port_shift))
  | None ->
    (* an IP literal names itself, as the system resolver would answer
       (the wizard daemon addresses requesters this way); anything else
       goes to the resolver, shift 0 *)
    (match Unix.inet_addr_of_string host with
    | addr -> Some (Unix.ADDR_INET (addr, port))
    | exception Failure _ ->
      (match Unix.getaddrinfo host "" [ Unix.AI_FAMILY Unix.PF_INET ] with
      | { Unix.ai_addr = Unix.ADDR_INET (addr, _); _ } :: _ ->
        Some (Unix.ADDR_INET (addr, port))
      | _ | (exception _) -> None))

(* Reverse lookup of a sockaddr to a registered host name, used to tag
   incoming transmitter streams. *)
let host_of_sockaddr t sockaddr =
  match sockaddr with
  | Unix.ADDR_INET (addr, port) ->
    Hashtbl.fold
      (fun host entry acc ->
        match acc with
        | Some _ -> acc
        | None ->
          if entry.addr = addr
             && port >= entry.port_shift
             && port < entry.port_shift + 1000
          then Some host
          else None)
      t.entries None
  | Unix.ADDR_UNIX _ -> None

let port_shift t ~host =
  match Hashtbl.find_opt t.entries host with
  | Some { port_shift; _ } -> port_shift
  | None -> 0
