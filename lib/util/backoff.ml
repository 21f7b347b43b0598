(* Shared retry-delay policy: truncated exponential backoff with
   deterministic jitter.

   Every retry loop of the system (client request retransmit, transmitter
   reconnect, realnet connect loops) draws its delays from one of these,
   so retry behaviour is tuned in one place and stays reproducible: the
   jitter source is an injected {!Prng}, never wall-clock entropy. *)

type policy = {
  base : float;        (* first delay, seconds *)
  multiplier : float;  (* growth factor per attempt *)
  max_delay : float;   (* ceiling the delays saturate at *)
  jitter : float;      (* fraction of the delay drawn uniformly at random *)
}

let default =
  { base = 0.2; multiplier = 2.0; max_delay = 5.0; jitter = 0.25 }

let policy ?(base = default.base) ?(multiplier = default.multiplier)
    ?(max_delay = default.max_delay) ?(jitter = default.jitter) () =
  if base <= 0.0 then invalid_arg "Backoff.policy: base must be positive";
  if multiplier < 1.0 then
    invalid_arg "Backoff.policy: multiplier must be >= 1";
  if max_delay < base then invalid_arg "Backoff.policy: max_delay < base";
  if jitter < 0.0 || jitter >= 1.0 then
    invalid_arg "Backoff.policy: jitter must be in [0, 1)";
  { base; multiplier; max_delay; jitter }

type t = {
  p : policy;
  rng : Prng.t option;  (* no rng -> no jitter: fully fixed schedule *)
  mutable attempt : int;
}

let create ?rng p = { p; rng; attempt = 0 }

let reset t = t.attempt <- 0

(* The undithered delay of attempt [n] (0-based). *)
let nominal p ~attempt =
  let d = p.base *. (p.multiplier ** float_of_int attempt) in
  Float.min p.max_delay d

let next t =
  let d = nominal t.p ~attempt:t.attempt in
  t.attempt <- t.attempt + 1;
  match t.rng with
  | None -> d
  | Some rng when t.p.jitter > 0.0 ->
    (* spread the delay over [(1-jitter) * d, d]: jitter only ever pulls
       retries earlier, so the nominal schedule is also the worst case *)
    d -. Prng.float rng ~bound:(t.p.jitter *. d)
  | Some _ -> d
