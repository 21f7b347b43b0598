(** Protocol half of the client library (§3.6.2): request construction,
    reply validation, option semantics, and the request exchange — send,
    retransmit with backoff, give up — as a sans-IO state machine. *)

(** Why a request failed from the client's point of view. *)
type error =
  | Timeout  (** no reply before the exchange's deadline *)
  | Wrong_seq of { expected : int; got : int }
      (** reply carried a stale or foreign sequence number *)
  | Not_enough of { wanted : int; got : int }
      (** wizard returned fewer servers than the option allows *)
  | Malformed of string  (** reply datagram failed to decode *)
  | Admission_rejected
      (** the wizard shed the request under overload (reply carried the
          rejected flag); back off before retrying — the wizard is
          alive, unlike [Timeout] *)

(** Human-readable rendering of [error]. *)
val pp_error : Format.formatter -> error -> unit

type t

(** [create ?metrics ?trace ~rng ()] builds a client drawing sequence
    numbers from [rng].  [metrics] receives the [client.*] instruments
    (see OBSERVABILITY.md); by default a private registry is used.
    [trace] records a [client.request] span per request — opened by
    {!make_request}, whose context rides in the request datagram (making
    it the root of the request's cross-component trace), and closed when
    the request's {!exchange} ends; defaults to
    {!Smart_util.Tracelog.disabled}. *)
val create :
  ?metrics:Smart_util.Metrics.t ->
  ?trace:Smart_util.Tracelog.t ->
  rng:Smart_util.Prng.t ->
  unit ->
  t

(** Build a request with a fresh random sequence number.  Raises
    [Invalid_argument] when [wanted] is out of range. *)
val make_request :
  t ->
  wanted:int ->
  option:Smart_proto.Wizard_msg.option_flag ->
  requirement:string ->
  Smart_proto.Wizard_msg.request

(** Validate a reply datagram and apply the option semantics: [Strict]
    needs the full count back, [Accept_partial] any non-empty subset.
    Counts the outcome in [client.replies_ok_total] or
    [client.reply_errors_total]. *)
val check_reply :
  t -> Smart_proto.Wizard_msg.request -> string -> (string list, error) result

(** {1 The request exchange}

    One request on the wire, from its first send to its outcome: the
    sends, the waits between them and the reply that ends it.  The
    driver, simulated or Unix, owns the clock and the socket: it sends
    what a {!step} says, wakes the exchange when asked, and hands it
    every datagram that arrives for the request. *)

type exchange

(** What the driver does next. *)
type step =
  | Send of float
      (** send {!datagram} now, then wake the exchange at this time *)
  | Wait of float  (** wake the exchange at this time *)
  | Done of (string list, error) result  (** the exchange ended here *)
  | Idle
      (** nothing to do: the exchange had already ended (a reply beat
          this wake) *)

(** [exchange t request ~sends ~backoff ~deadline] schedules [request],
    built by {!make_request} on [t] just before, and takes over its
    [client.request] span.  It sends at most [sends] times; each send's
    wake is the next [backoff] window, clipped to [deadline], and after
    the last send it waits until [deadline].  A fresh exchange is due at
    once: its first {!wake} sends. *)
val exchange :
  t ->
  Smart_proto.Wizard_msg.request ->
  sends:int ->
  backoff:Smart_util.Backoff.t ->
  deadline:float ->
  exchange

(** The encoded request, the same bytes on every send. *)
val datagram : exchange -> string

(** The clock read [now] at or after the time the last step asked for.
    Returns a [Send] (a retransmit counts in [client.retries_total] and
    records a [client.retry] instant), a [Wait] for the deadline after
    the last send, [Done (Error Timeout)] at the deadline, or [Idle]
    once the exchange has ended. *)
val wake : exchange -> now:float -> step

(** A datagram arrived for the exchange.  Decoded once: a reply for
    another sequence number is counted in [client.reply_errors_total]
    and dropped ([None]), and the exchange keeps waiting; any other
    datagram ends it with {!check_reply}'s verdict.  [None] too once the
    exchange has ended.

    However it ends, the exchange observes its sends in
    [client.request_attempts] and closes its [client.request] span. *)
val receive : exchange -> string -> (string list, error) result option

(** Compile the requirement locally and report unbound variables (typo
    candidates) before anything is sent. *)
val lint_requirement : string -> (string list, string) result
