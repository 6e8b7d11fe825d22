(** Per-task centralized component (§II-C a): collects data from the
    task's seeds and takes global actions when seed-local decisions are
    insufficient.  Harvester logic is host code (a callback), matching the
    paper's Python harvesters. *)

module Value := Farm_almanac.Value

(** Capabilities handed to harvester logic. *)
type ctx = {
  send_to_seed : switch:int -> Value.t -> unit;
      (** deliver to the task's seed on one switch *)
  broadcast : Value.t -> unit;  (** deliver to every seed of the task *)
  now : unit -> float;
  log : string -> unit;
}

type spec = {
  on_start : ctx -> unit;
  on_message : ctx -> from_switch:int -> Value.t -> unit;
}

(** A harvester that only records messages. *)
val collector_spec : spec

type t

val create : spec -> ctx -> t
val start : t -> unit

(** Where to find the trace sink: while it returns [Some sink], every
    inbound report emits an instant event there (category
    ["harvester"], accepted or dropped).  The seeder wires it to its
    engine's current sink, so swapping or detaching that sink takes
    effect at once. *)
val set_tracer : t -> (unit -> Farm_sim.Trace.t option) -> unit

(** Publish this harvester's accounting (received / stale_dropped /
    dup_dropped, plus offered / shed when the inbox has limits) as
    callback gauges under [prefix] in [reg]. *)
val metrics_register :
  t -> Farm_sim.Metrics.Registry.t -> prefix:string -> unit

(** {2 Bounded inbox (overload protection)} *)

(** At most [max_reports] reports admitted per rolling [window] (seconds),
    split fairly across the task's reporting seeds: a seed past its
    [max_reports / seeds] share is shed first.  Shedding happens after
    fencing/dedup, so stale and duplicate drops are never double-counted
    as sheds. *)
type overload_config = { window : float; max_reports : int }

val default_overload : overload_config

(** Protection off, as for a new harvester: the window never closes and
    nothing is shed. *)
val unlimited : overload_config

(** Set the inbox limits and open a new window.  Wired by the seeder at
    deploy time from [harvester_overload]. *)
val set_overload : t -> overload_config -> unit

(** Reports admitted per seed in the current window, by seed id; [[]] at
    unlimited limits. *)
val window_admits : t -> (int * int) list

(** Reports offered to [handle] in total (counted even with shedding off,
    so the balance [offered = received + stale + dup + shed] always
    holds). *)
val offered_count : t -> int

(** Fresh reports shed by the bounded inbox. *)
val shed_count : t -> int

(** Report provenance: which seed {e instance} produced it.  [p_epoch] is
    the seed's instance epoch (bumped by the seeder on every
    (re)instantiation — deploy, migration, failure recovery); [p_seq] is a
    per-instance monotonic sequence number. *)
type provenance = { p_seed : int; p_epoch : int; p_seq : int }

(** Raise the fence for a seed: reports with a lower epoch are dropped
    from now on.  Called by the seeder whenever it (re)instantiates the
    seed, so a zombie instance surviving a false failure detection cannot
    corrupt task state.  Fences only move forward. *)
val fence : t -> seed_id:int -> epoch:int -> unit

(** Called by the runtime when a seed message arrives.  By [provenance],
    stale-epoch reports are dropped and (epoch, seq) duplicates — control
    retransmissions, ctrl-dup faults — are suppressed, making delivery
    exactly-once. *)
val handle : provenance:provenance -> t -> from_switch:int -> Value.t -> unit

(** All messages received so far, most recent first:
    (arrival time, source switch, value). *)
val received : t -> (float * int * Value.t) list

val received_count : t -> int

(** Provenance of accepted reports, most recent first — per seed, epochs
    are non-decreasing going forward in time (the chaos suite asserts
    this). *)
val accepted_provenance : t -> (float * provenance) list

(** Reports dropped because their epoch was behind the fence. *)
val stale_dropped : t -> int

(** Reports dropped as (seed, epoch, seq) duplicates. *)
val dup_dropped : t -> int
