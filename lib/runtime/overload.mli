(** Deterministic overload-protection primitives.

    Pure building blocks for the overload-resilience layer: a token bucket
    (control-channel rate limiting), a circuit breaker (per-switch send
    gating), and the AIMD constants used by degraded-mode seeds.  Nothing
    here touches the engine or draws randomness — callers pass in
    simulation time and act on the returned decisions, so every use is
    replayable. *)

module Token_bucket : sig
  type t

  (** [create ~rate ~burst] starts full.  [rate] is tokens/second and must
      be positive; [burst] bounds the accumulated credit. *)
  val create : rate:float -> burst:float -> t

  (** Tokens available at [now] (after refill). *)
  val level : t -> now:float -> float

  (** Debit one token and return the delay the caller must wait before
      acting — 0 when credit is available.  The bucket may be overdrawn;
      the debt delays subsequent reservations, which paces a burst into a
      smooth stream. *)
  val reserve : t -> now:float -> float
end

module Breaker : sig
  type state =
    | Closed of int  (** consecutive failures so far *)
    | Open of float  (** rejecting until this time *)
    | Half_open  (** single probe in flight *)

  type t

  (** Opens after [threshold] consecutive failures; stays open for
      [cooldown] seconds, then admits one half-open probe. *)
  val create : threshold:int -> cooldown:float -> t

  (** May a send proceed at [now]?  An expired open window half-opens and
      admits exactly one probe. *)
  val allow : t -> now:float -> bool

  (** The probe (or any send) succeeded: close. *)
  val success : t -> unit

  (** A send timed out or failed at [now]. *)
  val failure : t -> now:float -> unit

  val is_open : t -> bool
  val state : t -> state
  val state_name : t -> string

  (** Times the breaker has tripped open. *)
  val opens : t -> int
end

(** {2 AIMD degraded mode}

    Seeds under pressure scale their polling rate by a factor in
    [(0, 1\]]: multiplicative back-off on every pressure tick, additive
    recovery on every clear tick.  All constants are dyadic so the scale
    returns to exactly [1.0] (full fidelity) after at most
    [(1 - floor) / ai] clear ticks. *)

val aimd_floor : float

val back_off : float -> float
val recover : float -> float
