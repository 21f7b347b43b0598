(* The client library's protocol half (§3.6.2): build a request with a
   random sequence number, validate the reply against it, apply the
   option semantics, and run the request exchange — sends, retransmits
   and give-up — as a state machine.  Driver code (simulated or Unix)
   performs the send, the receive, the waits, and the final TCP
   connections to the candidates. *)

module Metrics = Smart_util.Metrics
module Tracelog = Smart_util.Tracelog

type error =
  | Timeout
  | Wrong_seq of { expected : int; got : int }
  | Not_enough of { wanted : int; got : int }
  | Malformed of string
  | Admission_rejected

let pp_error ppf = function
  | Timeout -> Fmt.string ppf "request timed out"
  | Wrong_seq { expected; got } ->
    Fmt.pf ppf "reply sequence mismatch (expected %d, got %d)" expected got
  | Not_enough { wanted; got } ->
    Fmt.pf ppf "only %d of %d servers available" got wanted
  | Malformed m -> Fmt.pf ppf "malformed reply: %s" m
  | Admission_rejected ->
    Fmt.string ppf "request shed by wizard admission control (back off)"

type t = {
  rng : Smart_util.Prng.t;
  trace : Tracelog.t;
  mutable span : Tracelog.span;
      (* the last request's client.request span, until its exchange
         takes it over *)
  requests_total : Metrics.Counter.t;
  replies_ok_total : Metrics.Counter.t;
  reply_errors_total : Metrics.Counter.t;
  retries_total : Metrics.Counter.t;
  attempts_histogram : Metrics.Histogram.t;
}

let create ?(metrics = Metrics.create ()) ?(trace = Tracelog.disabled) ~rng
    () =
  {
    rng;
    trace;
    span = Tracelog.none;
    requests_total =
      Metrics.counter metrics ~help:"requests built" "client.requests_total";
    replies_ok_total =
      Metrics.counter metrics ~help:"replies accepted" "client.replies_ok_total";
    reply_errors_total =
      Metrics.counter metrics
        ~help:"replies rejected (sequence, count or decode)"
        "client.reply_errors_total";
    retries_total =
      Metrics.counter metrics
        ~help:"request retransmits after a per-attempt timeout"
        "client.retries_total";
    attempts_histogram =
      Metrics.histogram metrics
        ~help:"send attempts per completed request (1 = no retransmit)"
        "client.request_attempts";
  }

let make_request t ~wanted ~option ~requirement =
  if wanted <= 0 then invalid_arg "Client.make_request: wanted must be positive";
  if wanted > Smart_proto.Ports.max_reply_servers then
    invalid_arg
      (Printf.sprintf "Client.make_request: at most %d servers per request"
         Smart_proto.Ports.max_reply_servers);
  Metrics.Counter.incr t.requests_total;
  let seq = Smart_util.Prng.int t.rng ~bound:0x3FFFFFFF in
  (* The client.request span is the root of the request's trace; its
     context rides in the datagram and the span stays open until the
     request's exchange ends. *)
  let span = Tracelog.start t.trace "client.request" in
  t.span <- span;
  {
    Smart_proto.Wizard_msg.seq;
    server_num = wanted;
    option;
    requirement;
    trace = Tracelog.ctx_of span;
  }

(* The verdict on a decoded reply to [request], counted: the option
   field decides, [Strict] failing unless the full count came back and
   [Accept_partial] taking a non-empty subset. *)
let verdict t (request : Smart_proto.Wizard_msg.request) decoded =
  let result =
    match decoded with
    | Error m -> Error (Malformed m)
    | Ok (reply : Smart_proto.Wizard_msg.reply) ->
      if reply.seq <> request.seq then
        Error (Wrong_seq { expected = request.seq; got = reply.seq })
      else if reply.rejected then
        (* admission control shed the request: distinct from a timeout
           (the wizard is alive, just overloaded) and from an empty
           candidate list (nothing qualified) — callers back off *)
        Error Admission_rejected
      else begin
        let servers = reply.servers in
        let got = List.length servers in
        let wanted = request.server_num in
        match request.option with
        | Smart_proto.Wizard_msg.Strict ->
          if got >= wanted then Ok servers
          else Error (Not_enough { wanted; got })
        | Smart_proto.Wizard_msg.Accept_partial ->
          if got = 0 then Error (Not_enough { wanted; got }) else Ok servers
      end
  in
  Metrics.Counter.incr
    (match result with Ok _ -> t.replies_ok_total | Error _ -> t.reply_errors_total);
  result

let check_reply t request data =
  verdict t request (Smart_proto.Wizard_msg.decode_reply data)

(* ------------------------------------------------------------------ *)
(* The request exchange                                                 *)
(* ------------------------------------------------------------------ *)

type exchange = {
  client : t;
  request : Smart_proto.Wizard_msg.request;
  datagram : string;
  span : Tracelog.span;
  backoff : Smart_util.Backoff.t;
  sends : int;
  deadline : float;
  mutable sent : int;
  mutable final : bool;  (* the pending wake is the deadline *)
  mutable over : bool;
}

type step =
  | Send of float
  | Wait of float
  | Done of (string list, error) result
  | Idle

let exchange t request ~sends ~backoff ~deadline =
  {
    client = t;
    request;
    datagram = Smart_proto.Wizard_msg.encode_request request;
    span = t.span;
    backoff;
    sends;
    deadline;
    sent = 0;
    final = false;
    over = false;
  }

let datagram ex = ex.datagram

let conclude ex outcome =
  ex.over <- true;
  if ex.sent > 0 then
    Metrics.Histogram.observe ex.client.attempts_histogram
      (float_of_int ex.sent);
  Tracelog.finish ex.client.trace ex.span;
  outcome

let wake ex ~now =
  if ex.over then Idle
  else if ex.final || now >= ex.deadline then Done (conclude ex (Error Timeout))
  else if ex.sent < ex.sends then begin
    if ex.sent > 0 then begin
      Metrics.Counter.incr ex.client.retries_total;
      Tracelog.instant ex.client.trace "client.retry"
    end;
    ex.sent <- ex.sent + 1;
    let at = now +. Smart_util.Backoff.next ex.backoff in
    if at < ex.deadline then Send at
    else begin
      ex.final <- true;
      Send ex.deadline
    end
  end
  else begin
    ex.final <- true;
    Wait ex.deadline
  end

let receive ex data =
  if ex.over then None
  else
    match Smart_proto.Wizard_msg.decode_reply data with
    | Ok reply when reply.seq <> ex.request.seq ->
      (* an answer to some other request: keep waiting for ours *)
      Metrics.Counter.incr ex.client.reply_errors_total;
      None
    | decoded -> Some (conclude ex (verdict ex.client ex.request decoded))

(* Pre-flight check: warn about variables no binding can ever supply. *)
let lint_requirement requirement =
  match Smart_lang.Requirement.compile requirement with
  | Error e -> Error (Fmt.str "%a" Smart_lang.Requirement.pp_compile_error e)
  | Ok program -> Ok (Smart_lang.Requirement.unbound_variables program)
