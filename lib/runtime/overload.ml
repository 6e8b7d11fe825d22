(* Pure, deterministic overload-protection primitives.  No randomness and
   no engine access: callers feed in simulation time and interpret the
   returned delays/decisions, so every client stays replayable. *)

(* ------------------------------------------------------------------ *)
(* Token bucket                                                        *)
(* ------------------------------------------------------------------ *)

module Token_bucket = struct
  type t = {
    rate : float;  (* tokens/s *)
    burst : float;  (* bucket capacity *)
    mutable level : float;  (* may go negative: committed future tokens *)
    mutable last : float;  (* last refill instant *)
  }

  let create ~rate ~burst =
    if rate <= 0. then invalid_arg "Token_bucket: rate must be > 0";
    { rate; burst; level = burst; last = 0. }

  let refill t ~now =
    if now > t.last then begin
      t.level <- Float.min t.burst (t.level +. ((now -. t.last) *. t.rate));
      t.last <- now
    end

  let level t ~now =
    refill t ~now;
    t.level

  (* Debit one token and return how long the caller must wait before
     acting.  Overdrawing is allowed — the debt is repaid by future refills,
     which is what turns a burst into a smooth paced stream. *)
  let reserve t ~now =
    refill t ~now;
    let delay = if t.level >= 1. then 0. else (1. -. t.level) /. t.rate in
    t.level <- t.level -. 1.;
    delay
end

(* ------------------------------------------------------------------ *)
(* Circuit breaker                                                     *)
(* ------------------------------------------------------------------ *)

module Breaker = struct
  type state =
    | Closed of int  (* consecutive failures so far *)
    | Open of float  (* rejects until this time, then half-opens *)
    | Half_open  (* single probe in flight *)

  type t = {
    threshold : int;  (* consecutive failures that open the breaker *)
    cooldown : float;  (* seconds open before the half-open probe *)
    mutable state : state;
    mutable opens : int;  (* times the breaker tripped (for metrics) *)
  }

  let create ~threshold ~cooldown =
    if threshold <= 0 then invalid_arg "Breaker: threshold must be > 0";
    { threshold; cooldown; state = Closed 0; opens = 0 }

  (* May this send proceed?  An expired open window transitions to
     half-open and admits exactly one probe; further calls are rejected
     until that probe reports success or failure. *)
  let allow t ~now =
    match t.state with
    | Closed _ -> true
    | Half_open -> false
    | Open until ->
        if now >= until then begin
          t.state <- Half_open;
          true
        end
        else false

  let success t = t.state <- Closed 0

  let failure t ~now =
    match t.state with
    | Closed n ->
        if n + 1 >= t.threshold then begin
          t.state <- Open (now +. t.cooldown);
          t.opens <- t.opens + 1
        end
        else t.state <- Closed (n + 1)
    | Half_open ->
        t.state <- Open (now +. t.cooldown);
        t.opens <- t.opens + 1
    | Open _ -> ()

  let is_open t =
    match t.state with Open _ | Half_open -> true | Closed _ -> false

  let state t = t.state
  let opens t = t.opens

  let state_name t =
    match t.state with
    | Closed _ -> "closed"
    | Open _ -> "open"
    | Half_open -> "half_open"
end

(* ------------------------------------------------------------------ *)
(* AIMD degradation                                                    *)
(* ------------------------------------------------------------------ *)

(* The degraded-mode knob is a rate scale in (0, 1]: 1.0 = full fidelity.
   All three constants are dyadic, so repeated back-off/recover sequences
   stay exact in binary floating point and a recovered seed lands on
   exactly 1.0 (byte-identical periods to an undegraded one). *)

let aimd_md = 0.5  (* multiplicative back-off factor per pressure tick *)
let aimd_ai = 0.125  (* additive recovery step per clear tick *)
let aimd_floor = 0.0625  (* deepest degradation: 1/16 of full rate *)

let back_off scale = Float.max aimd_floor (scale *. aimd_md)
let recover scale = Float.min 1. (scale +. aimd_ai)
