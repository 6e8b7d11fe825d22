(** Deterministic structured tracing.

    Events are stamped with {e simulation time} only — never wall clock —
    so a traced run's event stream is byte-identical across replays and
    across [Sweep] domain counts.  A sink belongs to a single engine;
    attach one with [Engine.set_tracer].  The only process-wide state is
    the counter that numbers {!key}s, which holds no event, string or
    id, so sinks stay isolated across domains.

    Created with [~ring:n > 0] the sink is a bounded flight recorder:
    the most recent [n] events are kept, older ones are overwritten (and
    counted in [dropped]).  The chaos suite dumps such a recorder on
    invariant failure for post-mortem debugging.

    Every event is stored in one compact slot layout: recording
    allocates nothing, and all string formatting (decimal timestamps,
    JSON escaping) is deferred to [to_chrome_json]/[events] flush time. *)

type arg = S of string | I of int | F of float

type phase =
  | Span of float  (** complete span; payload is the duration in seconds *)
  | Instant

type event = {
  ts : float;  (** simulation time, seconds *)
  cat : string;  (** dotted category, e.g. ["soil.pcie"] *)
  name : string;
  tid : int;  (** logical track (0 = engine, else a node ordinal) *)
  ph : phase;
  args : (string * arg) list;
}

type t

val create : ?ring:int -> unit -> t
(** [create ()] is an unbounded append sink; [create ~ring:n ()] with
    [n > 0] keeps only the last [n] events (flight recorder). *)

(** {1 Recording}

    A sink resolves a {!key} the first time it records it and keeps the
    id for its lifetime, surviving [clear]; from then on a recording
    site pays one array read and allocates nothing. *)

type key

val key : string -> key
(** A category, argument key or constant event name, declared at module
    level: each call takes a fresh process-wide number. *)

val intern : t -> string -> int
(** Id of an event name or string value computed at run time (trigger,
    state and transition names, poll subjects); never allocates for a
    string already interned. *)

val name : t -> key -> int
(** Id of a constant event name, as [intern] of its string. *)

val instant : t -> ts:float -> cat:key -> name:int -> tid:int -> unit
(** Instant event ("ph":"i") on track [tid] (any int).  A sink holds at
    most 8192 distinct category and argument-key strings; recording one
    more raises [Invalid_argument]. *)

val span : t -> ts:float -> dur:float -> cat:key -> name:int -> tid:int -> unit
(** Complete span ("ph":"X"): an operation starting at [ts] lasting
    [dur] seconds. *)

val arg_i : t -> key -> int -> unit
(** [arg_i t key v] appends argument [key = I v] to the event recorded
    last.  An event takes at most three arguments, kept in order;
    appending with no event recorded since [create]/[clear], or a
    fourth argument, raises [Invalid_argument]. *)

val arg_f : t -> key -> float -> unit
val arg_s : t -> key -> int -> unit
(** [arg_s t key s]: an [S] argument whose value is the interned id [s]. *)

(** {1 Reading} *)

val count : t -> int
(** Events currently held (≤ ring size for flight recorders). *)

val dropped : t -> int
(** Events overwritten by a full ring; always 0 for unbounded sinks. *)

val events : t -> event list
(** Oldest first. *)

val iter : (event -> unit) -> t -> unit
val clear : t -> unit

val to_chrome_json : t -> string
(** Chrome [trace_event] JSON ({["{\"traceEvents\":[...]}"]}), loadable
    in Perfetto.  Timestamps are microseconds with fixed 3-decimal
    formatting, so equal event streams render byte-identical JSON. *)
