(** The M&M seed foundation layer (§II-B b).

    One soil runs on each switch's management system.  It multiplexes all
    co-located seeds onto the ASIC: it schedules counter polls over the
    {e PCIe bus} (a hard bottleneck — 8 Mbit/s of polling bandwidth against
    a 100+ Gbit/s ASIC, Fig. 8), {e aggregates} polls of seeds that ask for
    the same polling subject (poll once, deliver to all — the key saving
    exploited by placement optimization), samples packets for probe
    triggers, mediates TCAM access (monitoring region only, so forwarding
    is never disturbed), accounts management-CPU time, and models the
    soil↔seed IPC (threads/processes × gRPC/shared-buffer).

    PCIe transfers go through the switch's {!Pcie} bus, whose queue
    limits {!config.overload} sets; the soil prices them, attributes the
    polls a refused or shed transfer loses to their seeds, and runs a
    monitor that publishes CPU/PCIe pressure to the co-located seeds
    (AIMD degraded mode) and to the seeder.  The default runs the same
    code at {!unlimited} limits. *)

module Filter := Farm_net.Filter

(** Overload protection knobs (all watermarks are utilization fractions
    of the respective capacity). *)
type overload_config = {
  max_pcie_queue : int;
      (** waiting PCIe transfers admitted before the shedding policy
          picks a victim *)
  cpu_high : float;  (** pressure asserted above this CPU utilization *)
  cpu_low : float;  (** ... and cleared below this one (hysteresis) *)
  pcie_high : float;
  pcie_low : float;
  pressure_interval : float;  (** monitor period, seconds *)
}

val default_overload : overload_config

(** Protection off: an unbounded queue, watermarks never crossed and a
    pressure interval that never elapses. *)
val unlimited : overload_config

type config = {
  cpu : Cpu_model.t;
  scheme : Ipc.scheme;
  exec_model : Ipc.exec_model;
  aggregate_polls : bool;
  max_poll_queue_delay : float;
      (** at unlimited limits, transfers that would wait longer than this
          on the PCIe bus are dropped on arrival (counted in
          [polls_dropped]); a bounded queue sheds instead *)
  overload : overload_config option;
      (** [None] (the default) means {!unlimited}: nothing is shed, no
          pressure monitor runs and neither registers metrics *)
}

val default_config : config

type t

val create :
  ?config:config -> Farm_sim.Engine.t -> Farm_net.Switch_model.t -> t

val node_id : t -> int
val switch : t -> Farm_net.Switch_model.t
val config : t -> config

(** Current simulation time. *)
val now : t -> float

val engine : t -> Farm_sim.Engine.t

(** {2 Seeds}

    Each seed id has one record (instances, priority, hooks), made on
    first mention and kept after a detach, which drops one instance and
    resets the priority and both hooks.  IPC latency grows with
    [seed_count], the instances attached over all seeds (Fig. 10). *)

val attach_seed : t -> int -> unit
val detach_seed : t -> int -> unit
val seed_count : t -> int

(** {2 Polling, probing, timers} *)

type subscription

(** Ask the soil to poll [subject] every [period] seconds and deliver the
    counter values.  Delivery accounts PCIe transfer time, queueing, IPC
    latency and CPU costs.  When aggregation is on, seeds sharing a subject
    are served by a single ASIC poll at the fastest requested rate. *)
val subscribe_poll :
  t ->
  seed_id:int ->
  subject:Filter.subject ->
  period:float ->
  (float array -> unit) ->
  subscription

(** Sample packets matching [filter] roughly every [period] seconds (an
    upper bound: the actual rate depends on traffic, §III-A a). *)
val subscribe_probe :
  t ->
  seed_id:int ->
  filter:Filter.t ->
  period:float ->
  (Farm_net.Flow.packet -> unit) ->
  subscription

(** Plain periodic timer (the [time] trigger type). *)
val subscribe_time :
  t -> seed_id:int -> period:float -> (float -> unit) -> subscription

val set_period : t -> subscription -> float -> unit
val cancel : t -> subscription -> unit

(** [transfer t ~bytes ~seeds k] moves [bytes] over the PCIe bus on
    behalf of [seeds], the way a poll or a packet sample does, and calls
    [k] when the transfer completes.  A transfer dropped on arrival or
    shed by the bounded queue counts as one dropped poll per entry of
    [seeds] (see {!on_poll_drop}), like the soil's own reads. *)
val transfer : t -> bytes:float -> seeds:int list -> (unit -> unit) -> unit

(** {2 Overload protection}

    At {!unlimited} limits nothing is shed and the pressure hooks stay
    silent; drop notifications fire for wait-cap drops and sheds alike. *)

(** The limits in force: [config.overload], or {!unlimited}. *)
val limits : t -> overload_config

(** Request-granularity queue accounting, [None] at {!unlimited} limits.
    Offered = completed + shed + pending at every instant. *)
type overload_stats = Pcie.stats = {
  o_offered : int;
  o_completed : int;
  o_shed : int;
  o_pending : int;  (** queued + in flight on the bus *)
  o_queue_peak : int;  (** deepest queued + in-flight ever observed *)
}

val overload_stats : t -> overload_stats option

(** The queue serves high-priority seeds first and sheds low-priority ones
    first (default priority 0). *)
val set_seed_priority : t -> seed_id:int -> int -> unit

(** [on_poll_drop t ~seed_id f] registers a synchronous callback invoked
    with the number of this seed's polls lost whenever they are dropped
    (queue-too-long) or shed (overload policy).  Drops are also counted
    per seed under [soil.<node>.polls.dropped.seed<id>]. *)
val on_poll_drop : t -> seed_id:int -> (int -> unit) -> unit

(** Per-seed backpressure notification: [f ~high:true] on every monitor
    tick above the high watermark, [f ~high:false] on every tick below
    the low one.  Never called at {!unlimited} limits. *)
val on_pressure : t -> seed_id:int -> (high:bool -> unit) -> unit

(** The seeder's global pressure listener (one per soil). *)
val set_pressure_listener : t -> (node:int -> high:bool -> unit) -> unit

(** PCIe slowdown fault (Fault.Pcie_degrade): effective polling bandwidth
    becomes [pcie_bps / factor].  Factor 1 restores full speed and is
    bit-exact with the unfaulted path. *)
val set_pcie_factor : t -> float -> unit

val pcie_factor : t -> float

(** {2 TCAM (monitoring region)} *)

val add_tcam_rule :
  t -> Farm_net.Tcam.rule -> (unit, [ `Full ]) result

val remove_tcam_rule : t -> pattern:Filter.t -> int
val get_tcam_rule : t -> pattern:Filter.t -> Farm_net.Tcam.installed option

(** {2 Counter fault injection}

    Hooks for [Farm_sim.Fault]'s counter faults.  While frozen, ASIC reads
    keep returning the per-subject snapshot taken at the first read after
    the freeze; thawing clears the snapshots.  A glitch corrupts the next
    ASIC read with deterministic garbage (drawn from the soil's own rng, so
    runs stay reproducible). *)

val set_frozen : t -> bool -> unit
val glitch : t -> unit

(** {2 Accounting} *)

val charge_cpu : t -> float -> unit
val cpu : t -> Cpu_model.usage

(** Offered CPU load since the last [reset_stats]. *)
val cpu_load : t -> window:float -> float

val cpu_accuracy : t -> window:float -> float

(** Bytes one hardware counter read moves over the PCIe bus. *)
val counter_record_bytes : float

(** The resource-bound pass's cost model of a soil in {!default_config}
    (aggregated polls, shared-buffer IPC, threads), for [B201]. *)
val bounds_model : Farm_almanac.Bounds.cost_model

type poll_stats = {
  requested : int;
  completed : int;
  dropped : int;
  pcie_bytes : float;
  asic_polls : int;  (** actual ASIC reads (< requested when aggregating) *)
}

val poll_stats : t -> poll_stats

(** Distribution of seed-observed poll delivery latency (ASIC read issue →
    seed handler), the Fig. 10 measurement. *)
val delivery_latency : t -> Farm_sim.Metrics.Histogram.t

val reset_stats : t -> unit
