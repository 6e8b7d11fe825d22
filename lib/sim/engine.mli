(** Discrete-event simulation engine.

    Time is in {e seconds} (float).  Events are closures ordered by time with
    deterministic FIFO tie-breaking.  Every FARM component (switches, soils,
    seeds, harvesters, baselines, traffic sources) runs on this engine, which
    replaces the paper's production data center as the experiment substrate.

    The event queue is a hierarchical timer wheel (11 levels of 32 slots
    at 0.1 ms ticks, enough for any event time) tuned for
    periodic-timer-heavy workloads: re-arming a timer is O(1) and
    allocation-free.  Each 0.1 ms tick is dispatched from one sorted run:
    its slot is sorted once, and events are then taken from the front,
    merged with a small heap of events armed into the tick being
    dispatched.  Dispatch order remains the exact lexicographic
    [(time, push-sequence)] order of a binary-heap queue, so simulations are
    bit-for-bit reproducible; see DESIGN.md "Scheduler & parallel sweeps". *)

type t

(** [create ~seed ()] makes an engine whose root RNG is seeded with [seed]
    (default 42). *)
val create : ?seed:int -> unit -> t

(** Current simulation time in seconds. *)
val now : t -> float

(** The engine's root RNG; use {!Rng.split} to derive per-component streams. *)
val rng : t -> Rng.t

(** Schedule a one-shot event [delay] seconds from now ([delay >= 0]). *)
val schedule : t -> delay:float -> (t -> unit) -> unit

(** Schedule at an absolute time (>= now). *)
val schedule_at : t -> time:float -> (t -> unit) -> unit

(** Cancellable periodic timer. *)
type timer

(** [every t ~period ?phase f] fires [f] every [period] seconds, first at
    [now + phase] (default [period]).  The period can be changed on the fly
    with {!set_period} — this is how seeds adapt their polling rate. *)
val every : t -> period:float -> ?phase:float -> (t -> unit) -> timer

(** [cancel tm] stops [tm] and releases its callback at once, so what
    the callback captured can be collected.  The timer's queued event is
    not removed: it is still dispatched (and counted by {!dispatched}) at
    its due time, does nothing, and counts in {!pending} until then. *)
val cancel : timer -> unit

val set_period : timer -> float -> unit

(** Run until the event queue drains or [until] is reached (events at
    [time > until] stay queued; the clock stops at [until]). *)
val run : ?until:float -> t -> unit

(** Number of events dispatched so far. *)
val dispatched : t -> int

(** Number of events currently queued (periodic timers count once). *)
val pending : t -> int

(** {2 Observability}

    Each engine owns a {!Metrics.Registry} that components publish named
    metrics into, and an optional {!Trace} sink.  With the sink unset
    (the default) every trace hook in the stack is a single
    [match ... with None] branch — near-zero cost.  With a sink attached
    the engine emits an instant event per dispatched callback, and
    soils, seeds, the seeder and harvesters emit spans stamped with
    simulation time (never wall clock), so traces are byte-identical
    across replays and across {!Sweep} domain counts. *)

(** The engine's trace sink, if any. *)
val tracer : t -> Trace.t option

(** Attach ([Some sink]) or detach ([None]) the trace sink. *)
val set_tracer : t -> Trace.t option -> unit

(** The engine's named-metric registry. *)
val metrics : t -> Metrics.Registry.t
