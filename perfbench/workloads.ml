(* The four workloads.  Each generates its inputs and oracle answers
   from the seed ([prepare], untimed), then hands back a [setup] the
   ledger times — build the status plane, start what must run, warm the
   caches — which returns the running system as closures. *)

module C = Smart_core
module P = Smart_proto
module M = Meter
module S = Steps

(* Readings of the components' public stats accessors. *)
type counters = {
  result_hits : int;
  result_misses : int;
  compile_hits : int;
  compile_misses : int;
  rebuilds : int;  (* columnar snapshot rebuilds and refreshes *)
  pushes : int;
  retries : int;  (* client retransmits *)
  served_sum : float;  (* serving component's own latency histogram *)
  served_count : int;
}

let no_counters =
  {
    result_hits = 0; result_misses = 0; compile_hits = 0; compile_misses = 0;
    rebuilds = 0; pushes = 0; retries = 0;
    served_sum = 0.0; served_count = 0;
  }

(* What the probe pass of the traced run needs: an in-process wizard
   over this workload's plane, a federation to send its requests
   through, and its inputs. *)
type kit = {
  k_wizard : S.wizard;
  k_fed : S.fed;
  k_requests : Plane.request array;
  k_texts : string array;
  k_push : string;  (* one monitor group's encoded push *)
  k_replies : (P.Wizard_msg.request * string) list;
      (* genuine reply datagrams with their requests *)
}

type live = {
  run : int -> bool;  (* measured request [i]; [true] when answered right *)
  run_traced : M.spans -> int -> int -> bool;  (* spans, [i], request span *)
  between : int -> unit;
      (* due before request [i], inside the wall time but outside its
         latency: status pushes, periodic ticks *)
  between_traced : M.spans -> int -> unit;
  counters : unit -> counters;
  verify : unit -> int list;  (* deferred oracle checks: requests found wrong *)
  retained : unit -> int;  (* heap words the bench's own records hold *)
  kit : unit -> kit;
  close : unit -> unit;
}

type workload = {
  name : string;
  per_second : int;  (* sample capacity per measured second *)
  attribution_gate : float option;
      (* largest share by which the traced run's per-request layer sum
         may stray from the untraced mean request time *)
  prepare : seed:int -> corrupt:int -> max_requests:int -> unit -> live;
}

let combine f g a b =
  {
    result_hits = f a.result_hits b.result_hits;
    result_misses = f a.result_misses b.result_misses;
    compile_hits = f a.compile_hits b.compile_hits;
    compile_misses = f a.compile_misses b.compile_misses;
    rebuilds = f a.rebuilds b.rebuilds;
    pushes = f a.pushes b.pushes;
    retries = f a.retries b.retries;
    served_sum = g a.served_sum b.served_sum;
    served_count = f a.served_count b.served_count;
  }

let add_counters = combine ( + ) ( +. )
let sub_counters = combine ( - ) ( -. )

let wizard_counters ?(pushes = 0) w =
  let rh, rm = C.Wizard.result_cache_stats w in
  let ch, cm = C.Wizard.compile_cache_stats w in
  let s = C.Wizard.request_latency_summary w in
  {
    no_counters with
    result_hits = rh;
    result_misses = rm;
    compile_hits = ch;
    compile_misses = cm;
    rebuilds = C.Wizard.snapshot_rebuilds w + C.Wizard.snapshot_refreshes w;
    pushes;
    served_sum = s.Smart_util.Metrics.sum;
    served_count = s.Smart_util.Metrics.count;
  }

let centralized = { C.Wizard.mode = C.Wizard.Centralized; groups = None }

(* Oracle answers per (text, wanted), from a wizard with every cache off
   over its own copy of the plane. *)
let oracle_table ~texts ~wanted_max db =
  let twin = C.Wizard.create ~compile_cache_capacity:0 centralized db in
  Array.map
    (fun text ->
      Array.init (wanted_max + 1) (fun wanted ->
          if wanted = 0 then []
          else
            match
              S.reply_of
                (C.Wizard.handle_request twin ~now:0.0 ~from:S.client_addr
                   (Plane.encode ~seq:1 ~wanted text))
            with
            | Some data ->
              (match P.Wizard_msg.decode_reply data with
              | Ok r -> r.P.Wizard_msg.servers
              | Error e -> failwith ("oracle reply: " ^ e))
            | None -> failwith "oracle: no reply"))
    texts

let mix i seed =
  (* a 62-bit integer hash: the seeded 1-in-16 sample of checked replies *)
  let x = (i lxor (seed * 0x9E3779B97F4A7C1)) land max_int in
  let x = (x lxor (x lsr 31)) * 0x7FB5D329728EA185 land max_int in
  x lxor (x lsr 27)

let replies_kept = 256

(* Keep the first genuine replies for the check_reply probe. *)
let keeper () =
  let kept = ref [] and n = ref 0 in
  let keep (q : Plane.request) ~seq ~text data =
    if !n < replies_kept then begin
      incr n;
      kept :=
        ( {
            P.Wizard_msg.seq;
            server_num = q.Plane.wanted;
            option = P.Wizard_msg.Accept_partial;
            requirement = text;
            trace = Smart_util.Tracelog.root;
          },
          data )
        :: !kept
    end
  in
  (keep, fun () -> !kept)

(* ------------------------------------------------------------------ *)
(* hot_repeat                                                           *)
(* ------------------------------------------------------------------ *)

let hot_pool_size = 4096
let hot_clients = 64
let hot_wanted = 10

(* 8 texts x wanted 1-10 drawn uniformly, from 64 clients of Zipf
   popularity. *)
let hot_mix ~seed =
  let texts = Plane.hot_texts ~seed in
  let rng = Smart_util.Prng.create ~seed in
  let client = Plane.zipf rng hot_clients in
  let pool =
    Plane.pool ~size:hot_pool_size ~texts ~draw:(fun () ->
        ( Smart_util.Prng.int rng ~bound:(Array.length texts),
          1 + Smart_util.Prng.int rng ~bound:hot_wanted,
          client () ))
  in
  let hot_db () =
    let db = C.Status_db.create () in
    Plane.populate_hot db;
    db
  in
  (texts, pool, oracle_table ~texts ~wanted_max:hot_wanted (hot_db ()), hot_db)

let hot_repeat =
  let prepare ~seed ~corrupt ~max_requests:_ =
    let texts, pool, expected, hot_db = hot_mix ~seed in
    let froms =
      Array.init hot_clients (fun c ->
          { C.Output.host = Printf.sprintf "client%02d" c; port = 4000 + c })
    in
    (* The nominal clock keeps the busiest client at half its admission
       rate over every pool cycle, so each request pays the bucket check
       and none is delayed or shed. *)
    let busiest =
      let counts = Array.make hot_clients 0 in
      Array.iter (fun (q : Plane.request) -> counts.(q.client) <- counts.(q.client) + 1) pool;
      Array.fold_left max 0 counts
    in
    let dt =
      2.0 *. float_of_int busiest
      /. (C.Wizard.default_admission.C.Wizard.rate *. float_of_int hot_pool_size)
    in
    let warm = hot_pool_size in
    fun () ->
      let db = hot_db () in
      let wizard =
        C.Wizard.create ~clock:M.clock_s ~admission:C.Wizard.default_admission
          centralized db
      in
      let t = S.wizard_of wizard db in
      let now i = float_of_int (warm + i) *. dt in
      let entry i = pool.(i land (hot_pool_size - 1)) in
      for j = -warm to -1 do
        let q = entry j in
        ignore (S.wizard_request t ~now:(now j) ~from:froms.(q.client) q.datagram)
      done;
      let seq i = (i land (hot_pool_size - 1)) + 1 in
      let finish i (q : Plane.request) reply =
        match reply with
        | None ->
          S.report_error ~what:"hot_repeat" ~index:i "no reply";
          false
        | Some data ->
          let data = if i = corrupt then S.corrupt data else data in
          S.check ~what:"hot_repeat" ~index:i ~seq:(seq i)
            ~expected:expected.(q.text).(q.wanted) data
      in
      let keep, kept = keeper () in
      {
        run =
          (fun i ->
            let q = entry i in
            finish i q (S.wizard_request t ~now:(now i) ~from:froms.(q.client) q.datagram));
        run_traced =
          (fun sp i r ->
            let q = entry i in
            let text = texts.(q.text) in
            let reply =
              S.wizard_request_traced ~replay:(i mod S.replay_every = 0) sp
                ~req:i ~parent:r t ~now:(now i)
                ~from:froms.(q.client) ~text ~wanted:q.wanted ~seq:(seq i)
                q.datagram
            in
            Option.iter (keep q ~seq:(seq i) ~text) reply;
            M.timed sp ~req:i ~parent:r M.Check (fun () -> finish i q reply));
        between = ignore;
        between_traced = (fun _ _ -> ());
        counters = (fun () -> wizard_counters wizard);
        verify = (fun () -> []);
        retained = (fun () -> 0);
        kit =
          (fun () ->
            {
              k_wizard = t;
              k_fed = S.single_shard t;
              k_requests = pool;
              k_texts = texts;
              k_push = Plane.encode_push ~monitor:"mon00" db;
              k_replies = kept ();
            });
        close = ignore;
      }
  in
  { name = "hot_repeat"; per_second = 400_000; attribution_gate = Some 0.10; prepare }

(* ------------------------------------------------------------------ *)
(* churn_mixed                                                          *)
(* ------------------------------------------------------------------ *)

let churn_pool_size = 16384
let churn_wanted = 20
let churn_push_every = 32
let churn_warm = 1024

(* Push [k] (k >= 1) goes before measured request [32 k]: groups in
   turn, each group moving to its next load variant. *)
let churn_push_of k =
  ((k - 1) mod Plane.churn_groups, (((k - 1) / Plane.churn_groups) + 1) mod Plane.churn_variants)

let churn_mixed =
  let prepare ~seed ~corrupt ~max_requests =
    let texts = Plane.churn_texts ~seed in
    let rng = Smart_util.Prng.create ~seed:(seed + 3) in
    let pool =
      Plane.pool ~size:churn_pool_size ~texts ~draw:(fun () ->
          ( Smart_util.Prng.int rng ~bound:(Array.length texts),
            1 + Smart_util.Prng.int rng ~bound:churn_wanted,
            0 ))
    in
    let frames =
      Array.init Plane.churn_groups (fun group ->
          Array.init Plane.churn_variants (fun variant ->
              Plane.churn_push ~seed ~group ~variant))
    in
    let entry i = pool.((i + churn_warm) land (churn_pool_size - 1)) in
    let seq i = ((i + churn_warm) land (churn_pool_size - 1)) + 1 in
    let sampled i = mix i seed land 15 = 0 || i = corrupt in
    (* replies of the sampled requests, checked after the run against a
       twin database fed the same pushes at the same points *)
    let slots = (max_requests / 8) + 64 in
    let rec_index = Array.make slots 0 in
    let rec_servers : string list array = Array.make slots [] in
    let recorded = ref 0 in
    let load receiver =
      for g = 0 to Plane.churn_groups - 1 do
        match
          C.Receiver.handle_stream receiver ~from:(Plane.churn_monitor g) frames.(g).(0)
        with
        | Ok () -> ()
        | Error e -> failwith ("churn initial push: " ^ e)
      done
    in
    let push receiver k =
      let g, v = churn_push_of k in
      ignore (C.Receiver.handle_stream receiver ~from:(Plane.churn_monitor g) frames.(g).(v))
    in
    (* The plane after [k] pushes is fixed by each group's latest load
       variant, and that vector repeats every groups x variants pushes.
       The twin visits each state a sampled request saw once, in first-
       seen order, feeding only the groups whose variant differs, and
       checks every request sampled in that state: the same answers as
       replaying every push, at a cost that does not grow with the run. *)
    let variants_after k =
      Array.init Plane.churn_groups (fun g ->
          if k < g + 1 then 0
          else
            let last = k - ((k - 1 - g) mod Plane.churn_groups) in
            snd (churn_push_of last))
    in
    let verify () =
      let db = C.Status_db.create () in
      let receiver = C.Receiver.create ~order:Plane.order db in
      load receiver;
      let twin = C.Wizard.create ~compile_cache_capacity:0 centralized db in
      let current = Array.make Plane.churn_groups 0 in
      let states = Hashtbl.create 64 and order = ref [] in
      for r = 0 to !recorded - 1 do
        let key = variants_after (rec_index.(r) / churn_push_every) in
        match Hashtbl.find_opt states key with
        | None ->
          Hashtbl.replace states key [ r ];
          order := key :: !order
        | Some rs -> Hashtbl.replace states key (r :: rs)
      done;
      let bad = ref [] in
      List.iter
        (fun key ->
          Array.iteri
            (fun g v ->
              if current.(g) <> v then begin
                current.(g) <- v;
                match
                  C.Receiver.handle_stream receiver ~from:(Plane.churn_monitor g) frames.(g).(v)
                with
                | Ok () -> ()
                | Error e -> failwith ("churn oracle push: " ^ e)
              end)
            key;
          List.iter
            (fun r ->
              let i = rec_index.(r) in
              let expected =
                match
                  S.reply_of
                    (C.Wizard.handle_request twin ~now:0.0 ~from:S.client_addr
                       (entry i).datagram)
                with
                | Some data ->
                  (match P.Wizard_msg.decode_reply data with
                  | Ok reply -> reply.P.Wizard_msg.servers
                  | Error e -> failwith ("churn oracle: " ^ e))
                | None -> failwith "churn oracle: no reply"
              in
              if not (List.equal String.equal rec_servers.(r) expected) then begin
                bad := i :: !bad;
                S.report_mismatch ~what:"churn_mixed" ~index:i ~got:rec_servers.(r)
                  ~expected
              end)
            (Hashtbl.find states key))
        (List.rev !order);
      !bad
    in
    fun () ->
      let db = C.Status_db.create () in
      let receiver = C.Receiver.create ~order:Plane.order db in
      let wizard = C.Wizard.create ~clock:M.clock_s centralized db in
      C.Receiver.set_update_hook receiver
        (Some (fun _ -> C.Wizard.note_update wizard));
      load receiver;
      let t = S.wizard_of wizard db in
      for j = -churn_warm to -1 do
        ignore (S.wizard_request t ~now:0.0 ~from:S.client_addr (entry j).datagram)
      done;
      let pushes = ref 0 in
      let finish i reply =
        match reply with
        | None ->
          S.report_error ~what:"churn_mixed" ~index:i "no reply";
          false
        | Some data ->
          let data = if i = corrupt then S.corrupt data else data in
          (match S.decode ~what:"churn_mixed" ~index:i ~seq:(seq i) data with
          | None -> false
          | Some servers ->
            if sampled i && !recorded < slots then begin
              rec_index.(!recorded) <- i;
              rec_servers.(!recorded) <- servers;
              incr recorded
            end;
            true)
      in
      let due i = i > 0 && i mod churn_push_every = 0 in
      let keep, kept = keeper () in
      {
        run =
          (fun i -> finish i (S.wizard_request t ~now:0.0 ~from:S.client_addr (entry i).datagram));
        run_traced =
          (fun sp i r ->
            let q = entry i in
            let text = texts.(q.text) in
            (* the rebuild this request would pay inside handle_request
               after a push, timed on its own and still charged to it *)
            if due i then ignore (M.timed sp ~req:i ~parent:r M.Columns (fun () -> S.view t));
            let reply =
              S.wizard_request_traced ~replay:(i mod S.replay_every = 0) sp
                ~req:i ~parent:r t ~now:0.0
                ~from:S.client_addr ~text ~wanted:q.wanted ~seq:(seq i)
                q.datagram
            in
            Option.iter (keep q ~seq:(seq i) ~text) reply;
            M.timed sp ~req:i ~parent:r M.Check (fun () -> finish i reply));
        between =
          (fun i ->
            if due i then begin
              incr pushes;
              push receiver (i / churn_push_every)
            end);
        between_traced =
          (fun sp i ->
            if due i then begin
              incr pushes;
              let p = M.start sp ~req:i ~parent:(-1) M.Push in
              M.timed sp ~req:i ~parent:p M.Receiver_push (fun () ->
                  push receiver (i / churn_push_every));
              M.finish sp p
            end);
        counters = (fun () -> wizard_counters ~pushes:!pushes wizard);
        verify;
        retained =
          (fun () ->
            Obj.reachable_words (Obj.repr rec_servers) - (Array.length rec_servers + 1));
        kit =
          (fun () ->
            {
              k_wizard = t;
              k_fed = S.single_shard t;
              k_requests = pool;
              k_texts = texts;
              k_push = frames.(0).(1);
              k_replies = kept ();
            });
        close = ignore;
      }
  in
  { name = "churn_mixed"; per_second = 40_000; attribution_gate = None; prepare }

(* ------------------------------------------------------------------ *)
(* fed_fanout                                                           *)
(* ------------------------------------------------------------------ *)

let fed_pool_size = 4096
let fed_wanted = 20
let fed_tick_every = 32

let fed_fanout =
  let prepare ~seed ~corrupt ~max_requests:_ =
    let texts = Plane.fed_texts ~seed in
    let rng = Smart_util.Prng.create ~seed:(seed + 5) in
    let pool =
      Plane.pool ~size:fed_pool_size ~texts ~draw:(fun () ->
          ( Smart_util.Prng.int rng ~bound:(Array.length texts),
            1 + Smart_util.Prng.int rng ~bound:fed_wanted,
            0 ))
    in
    (* merge = flat: the oracle is one uncached wizard over the union *)
    let expected =
      let union = C.Status_db.create () in
      for k = 0 to Plane.fed_shards - 1 do
        Plane.populate_fed_shard ~seed union k
      done;
      oracle_table ~texts ~wanted_max:fed_wanted union
    in
    let entry i = pool.(i land (fed_pool_size - 1)) in
    let seq i = (i land (fed_pool_size - 1)) + 1 in
    let now i = float_of_int i *. 1e-3 in
    fun () ->
      let shards =
        List.init Plane.fed_shards (fun k ->
            let name = Plane.fed_shard_name k in
            let db = C.Status_db.create () in
            Plane.populate_fed_shard ~seed db k;
            (name, S.wizard_of (C.Wizard.create ~clock:M.clock_s ~shard_name:name centralized db) db))
      in
      let root =
        C.Fed_root.create ~clock:M.clock_s
          {
            C.Fed_root.shards =
              List.map
                (fun (name, _) ->
                  { C.Fed_root.name; addr = { C.Output.host = name; port = P.Ports.fed } })
                shards;
            fanout_timeout = 1.0;
            routing = true;
          }
      in
      (* digests exactly as the shard uplinks would ship them *)
      List.iter
        (fun (name, (t : S.wizard)) ->
          C.Fed_root.note_digest root
            (C.Status_db.summary t.S.db ~shard:name ~net_for:(S.net_for t)))
        shards;
      let f = S.fed_of root shards in
      (* the periodic tick a deployment runs retires answered requests *)
      let between i = if i mod fed_tick_every = 0 then ignore (C.Fed_root.tick root ~now:(now i)) in
      for j = -(2 * Array.length texts) to -1 do
        between j;
        ignore (S.fed_request f ~now:(now j) (entry j).datagram)
      done;
      let finish i (q : Plane.request) reply =
        match reply with
        | None ->
          S.report_error ~what:"fed_fanout" ~index:i "no reply";
          false
        | Some data ->
          let data = if i = corrupt then S.corrupt data else data in
          S.check ~what:"fed_fanout" ~index:i ~seq:(seq i)
            ~expected:expected.(q.text).(q.wanted) data
      in
      let keep, kept = keeper () in
      let shard0 = snd (List.hd shards) in
      {
        run = (fun i -> let q = entry i in finish i q (S.fed_request f ~now:(now i) q.datagram));
        run_traced =
          (fun sp i r ->
            let q = entry i in
            let text = texts.(q.text) in
            let reply =
              S.fed_request_traced sp ~req:i ~parent:r f ~now:(now i) ~text
                ~wanted:q.wanted ~seq:(seq i) q.datagram
            in
            Option.iter (keep q ~seq:(seq i) ~text) reply;
            M.timed sp ~req:i ~parent:r M.Check (fun () -> finish i q reply));
        between;
        between_traced = (fun _ i -> between i);
        counters =
          (fun () ->
            let s = C.Fed_root.request_latency_summary root in
            let per_shard =
              List.fold_left
                (fun acc (_, (t : S.wizard)) ->
                  let c = wizard_counters t.S.wizard in
                  {
                    acc with
                    compile_hits = acc.compile_hits + c.compile_hits;
                    compile_misses = acc.compile_misses + c.compile_misses;
                    rebuilds = acc.rebuilds + c.rebuilds;
                  })
                no_counters shards
            in
            {
              per_shard with
              served_sum = s.Smart_util.Metrics.sum;
              served_count = s.Smart_util.Metrics.count;
            });
        verify = (fun () -> []);
        retained = (fun () -> 0);
        kit =
          (fun () ->
            {
              k_wizard = shard0;
              k_fed = f;
              k_requests = pool;
              k_texts = texts;
              k_push = Plane.encode_push ~monitor:"fmon0" shard0.S.db;
              k_replies = kept ();
            });
        close = ignore;
      }
  in
  { name = "fed_fanout"; per_second = 40_000; attribution_gate = None; prepare }

(* ------------------------------------------------------------------ *)
(* loopback_udp                                                         *)
(* ------------------------------------------------------------------ *)

module Rn = Smart_realnet

(* Daemon ports come from [10000, 30000): below the kernel's ephemeral
   range, where the client's per-call sockets could otherwise land on
   the daemon's port, and above the shifts the realnet tests register.
   Each candidate is probed by binding without SO_REUSEADDR, which
   fails if any socket holds the port. *)
let free_shift rng =
  let free kind port =
    let s = Unix.socket Unix.PF_INET kind 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close s)
      (fun () ->
        match Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
        | () -> true
        | exception Unix.Unix_error (_, _, _) -> false)
  in
  let rec go tries =
    if tries = 0 then failwith "loopback_udp: no free port pair";
    let shift = 10000 + Smart_util.Prng.int rng ~bound:20000 - P.Ports.wizard in
    if free Unix.SOCK_DGRAM (P.Ports.wizard + shift)
       && free Unix.SOCK_STREAM (P.Ports.receiver + shift)
    then shift
    else go (tries - 1)
  in
  go 64

let start_daemon rng =
  let rec go tries =
    let book = Rn.Addr_book.create () in
    Rn.Addr_book.register book ~host:"wizard" ~addr:Unix.inet_addr_loopback
      ~port_shift:(free_shift rng) ();
    match
      Rn.Wizard_daemon.create book
        {
          Rn.Wizard_daemon.host = "wizard";
          mode = C.Wizard.Centralized;
          staleness_threshold = infinity;
          admission = None;
        }
    with
    | d -> (book, d)
    | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) when tries > 1 -> go (tries - 1)
  in
  go 8

(* A lost datagram costs at most 50 + 100 + 200 ms and then counts as a
   failure; it never hangs the run. *)
let client_backoff =
  Smart_util.Backoff.policy ~base:0.05 ~multiplier:2.0 ~max_delay:0.2 ~jitter:0.0 ()

let loopback_udp =
  let prepare ~seed ~corrupt ~max_requests:_ =
    let texts, pool, expected, hot_db = hot_mix ~seed in
    let entry i = pool.(i land (hot_pool_size - 1)) in
    let port_rng = Smart_util.Prng.create ~seed:(seed lxor Unix.getpid ()) in
    fun () ->
      let book, daemon = start_daemon port_rng in
      Plane.populate_hot (Rn.Wizard_daemon.db daemon);
      Rn.Wizard_daemon.start daemon;
      let stopped = ref false in
      let close () =
        if not !stopped then begin
          stopped := true;
          Rn.Wizard_daemon.stop daemon
        end
      in
      let metrics = Smart_util.Metrics.create () in
      let rng = Smart_util.Prng.create ~seed in
      let call (q : Plane.request) =
        Rn.Client_io.request_servers ~timeout:0.2 ~retries:2
          ~backoff:client_backoff ~rng ~metrics book ~wizard_host:"wizard"
          ~wanted:q.wanted ~requirement:texts.(q.text) ()
      in
      (try
         for j = -512 to -1 do
           ignore (call (entry j))
         done
       with e ->
         close ();
         raise e);
      let finish i (q : Plane.request) = function
        | Ok servers ->
          let got = if i = corrupt then servers @ [ "corrupted" ] else servers in
          let expected = expected.(q.text).(q.wanted) in
          List.equal String.equal got expected
          || (S.report_mismatch ~what:"loopback_udp" ~index:i ~got ~expected;
              false)
        | Error e ->
          S.report_error ~what:"loopback_udp" ~index:i
            (Format.asprintf "%a" C.Client.pp_error e);
          false
      in
      let checker = C.Client.create ~rng:(Smart_util.Prng.create ~seed) () in
      let wizard = Rn.Wizard_daemon.wizard daemon in
      {
        run = (fun i -> let q = entry i in finish i q (call q));
        run_traced =
          (fun sp i r ->
            let q = entry i in
            let text = texts.(q.text) in
            let c = M.start sp ~req:i ~parent:r M.Client_call in
            let result = call q in
            M.finish sp c;
            (* the calls the round trip made on both ends, replayed
               on equivalent datagrams *)
            if i mod S.replay_every = 0 then begin
              let replay layer g = ignore (M.timed sp ~req:i ~parent:c layer g) in
              replay M.Socket_setup (fun () -> Rn.Udp_io.stop (Rn.Udp_io.bind_port 0));
              replay M.Decode_request (fun () -> P.Wizard_msg.decode_request q.datagram);
              let servers = match result with Ok s -> s | Error _ -> [] in
              let request =
                C.Client.make_request checker ~wanted:q.wanted
                  ~option:P.Wizard_msg.Accept_partial ~requirement:text
              in
              let reply =
                M.timed sp ~req:i ~parent:c M.Encode_reply (fun () ->
                    P.Wizard_msg.encode_reply
                      {
                        P.Wizard_msg.seq = request.P.Wizard_msg.seq;
                        servers;
                        degraded = false;
                        rejected = false;
                      })
              in
              replay M.Check_reply (fun () -> C.Client.check_reply checker request reply)
            end;
            M.timed sp ~req:i ~parent:r M.Check (fun () -> finish i q result));
        between = ignore;
        between_traced = (fun _ _ -> ());
        counters =
          (fun () ->
            let s = C.Wizard.request_latency_summary wizard in
            {
              (wizard_counters wizard) with
              retries = Smart_util.Metrics.counter_value metrics "client.retries_total";
              served_sum = s.Smart_util.Metrics.sum;
              served_count = s.Smart_util.Metrics.count;
            });
        verify = (fun () -> []);
        retained = (fun () -> 0);
        kit =
          (fun () ->
            (* an in-process twin of the daemon's wizard for the
               layers a socket hides *)
            let db = hot_db () in
            let t = S.wizard_of (C.Wizard.create ~clock:M.clock_s centralized db) db in
            {
              k_wizard = t;
              k_fed = S.single_shard t;
              k_requests = pool;
              k_texts = texts;
              k_push = Plane.encode_push ~monitor:"mon00" db;
              k_replies = [];
            });
        close;
      }
  in
  { name = "loopback_udp"; per_second = 60_000; attribution_gate = None; prepare }

let all = [ hot_repeat; churn_mixed; fed_fanout; loopback_udp ]
