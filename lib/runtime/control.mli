(** The control channel between switches and the central components
    (the paper's message bus, §V).

    Unicast sends are retried with exponential backoff when lost or when
    the recipient is away, and run the overload protection.  One-shot
    sends (heartbeats, checkpoints) cross the same lossy wire but are
    never retried, paced or refused: gating heartbeats would turn channel
    congestion into false failure detections and migration storms.
    Every decision is deterministic under replay. *)

(** A global token bucket ([rate_limit] sends per second, [burst] deep)
    paces unicasts; a per-switch circuit breaker opens after
    [breaker_threshold] consecutive failures (loss or recipient away),
    refuses sends for [breaker_cooldown] seconds, then admits one
    half-open probe; at most [max_inflight_retries] retries per switch
    wait at once; and retry backoffs carry up to [retry_jitter] seconds
    drawn from a per-message keyed rng stream. *)
type protection = {
  rate_limit : float;
  burst : float;
  breaker_threshold : int;
  breaker_cooldown : float;
  max_inflight_retries : int;
  retry_jitter : float;
}

val default_protection : protection

(** Protection off: the same code at limits that never delay, refuse,
    cap or jitter anything. *)
val unlimited : protection

(** Per-transmission drop probability, extra one-way latency and
    duplication probability.  At [perfect] nothing is drawn, so
    fault-free runs consume no randomness. *)
type faults = { loss : float; delay : float; dup : float }

val perfect : faults

(** One-way latency between a switch and the central components. *)
val latency : float

(** First retransmission backoff (doubles per try); a duplicate arrives
    this long after the original. *)
val retry_backoff : float

(** Retransmissions of one unicast before it is counted lost. *)
val max_retries : int

type t

(** A channel at [perfect] faults.  A limited [protection] splits the
    jitter rng off the engine's here; the loss/dup rng is split at the
    first draw.  Registers the [seeder.control.*] gauges, and the
    [seeder.ctrl.*] ones unless [protection] is {!unlimited}. *)
val create : Farm_sim.Engine.t -> protection -> t

val set_faults : t -> faults -> unit

(** Unicast.  [deliver] runs at the receiver and says whether the
    recipient took the message ([`Delivered]), is away and worth a retry
    ([`Absent]), or is gone for good ([`Gone]).  Try [k] of a lost or
    absent message is retried [latency + delay + retry_backoff * 2^k]
    (plus jitter) later.  [dest] names the switch whose breaker gates
    the send and whose retries are bounded; [key], in [\[0, max_key\]]
    and distinct per logical message, selects its jitter streams. *)
val send :
  t -> ?dest:int -> ?key:int -> (unit -> [ `Delivered | `Absent | `Gone ]) ->
  unit

val max_key : int  (** the largest [key] {!send} accepts *)

(** Fire and forget, [extra] seconds of serialization later. *)
val oneshot : t -> ?extra:float -> (unit -> unit) -> unit

(** Unicasts retransmitted, and given up on (retries exhausted or
    capped, refused by a breaker, or the recipient gone). *)
val retransmissions : t -> int

val lost_messages : t -> int

(** Unicasts delayed by the bucket, refused by a breaker, and retries
    refused by the in-flight bound. *)
val rate_limited : t -> int

val breaker_dropped : t -> int
val retry_capped : t -> int

val breaker_opens : t -> int  (** breaker trips, all switches *)

(** ["closed" | "open" | "half_open"], or [None] if no unicast was ever
    sent to the switch. *)
val breaker_state : t -> int -> string option

(** Appends a [ctrl <node> ...] line, in node order, per switch whose
    breaker is not closed at zero failures or that has retries waiting. *)
val digest : t -> Buffer.t -> unit

(** Events on the seeder's track (category ["seeder"], tid 0), named by
    a module-level {!Farm_sim.Trace.key}.  Each returns the sink it went
    to, for {!trace_i}/{!trace_f} to append arguments; with no tracer a
    call is one branch and allocates nothing. *)
val trace_instant :
  Farm_sim.Engine.t -> Farm_sim.Trace.key -> Farm_sim.Trace.t option

val trace_span :
  Farm_sim.Engine.t -> Farm_sim.Trace.key -> dur:float ->
  Farm_sim.Trace.t option

val trace_i : Farm_sim.Trace.t option -> Farm_sim.Trace.key -> int -> unit
val trace_f : Farm_sim.Trace.t option -> Farm_sim.Trace.key -> float -> unit
