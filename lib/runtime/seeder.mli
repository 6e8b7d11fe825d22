(** The M&M centralized control instance (§II-C b).

    The seeder turns Almanac task descriptions into deployed seeds: it
    type-checks the program, runs the static analyses (placement sites,
    utility polynomials, polling), solves the {e global} placement problem
    across {e all} co-deployed tasks with the Alg. 1 heuristic, instantiates
    or migrates seed instances accordingly, and routes messages between
    seeds and harvesters.

    It reacts to switch failures: when its {!Healing} layer declares a
    switch failed, the orphaned seeds are re-placed (incremental greedy
    pass) and resumed from their last checkpoint; when the switch
    rejoins, the placement is re-optimized.  With [auto_heal] the
    healing layer detects crashes from missing heartbeats and ships seed
    checkpoints.  Every (re)instantiation bumps the seed's {e epoch};
    harvesters fence reports by epoch, so an instance that survives a
    false detection (a "zombie") can never corrupt task state. *)

module Value := Farm_almanac.Value

type config = {
  soil_config : Soil.config;
  engine : Farm_almanac.Engine.engine;
      (** execution engine deployed seeds run on: the slot-compiled
          [`Compiled] (default) or the reference interpreter [`Interp] *)
  refuse_conflicts : bool;
      (** refuse deployment when cross-task conflict detection
          ([Farm_placement.Conflict]) reports [C3xx] warnings against
          already-deployed tasks; [false] (default) deploys and records
          them in {!last_deploy_diagnostics} *)
  verify_on_deploy : bool;
      (** run the symbolic verifier at deploy time: per-handler
          translation validation of the compiled plan against the
          reference semantics ([V401]/[V402]), [assert(..)] invariant
          proofs ([V403]), value-range safety ([V404]), and
          reachability-backed lint verdicts.  Deployment is refused when
          a [V4xx] error is found (the machine's compiled form provably
          diverges from the reference semantics, or an invariant admits
          a feasible violation); warnings are recorded in
          {!last_deploy_diagnostics}.  [false] (default) keeps deploys
          fast — the same checks are available offline via
          [farmc verify]. *)
  auto_heal : bool;
      (** enable the self-healing layer: heartbeats, a timeout failure
          detector and checkpoint shipping.  [false] (default) sends no
          heartbeats or checkpoints; an oracle detector declares each
          crash at the instant it happens (see § Failures). *)
  heartbeat_interval : float;
      (** period of per-switch heartbeats over the control channel *)
  detection_timeout : float;
      (** silence (no heartbeat) after which a switch is declared dead;
          should exceed a few heartbeat intervals or lossy control planes
          produce false positives (which are safe, but cost migrations) *)
  checkpoint_interval : float;
      (** period of per-seed state checkpoints; one interval is the most
          state a crash can lose.  Smaller intervals cost control-channel
          bandwidth and switch CPU ({!checkpoint_bytes}). *)
  checkpoint_full_every : int;
      (** every n-th checkpoint is a full snapshot (the rest are deltas);
          lost deltas leave the seeder's copy stale until the next full *)
  ctrl_protection : Control.protection;
      (** {!Control.unlimited} (default): nothing is delayed, refused or
          jittered, and no [seeder.ctrl.*] or [seeder.pressure.*] metric
          is registered *)
  harvester_overload : Harvester.overload_config;
      (** bounded fair-share harvester inboxes; {!Harvester.unlimited}
          (default) admits everything *)
}

val default_config : config

(** [default_config] with every overload-protection layer switched on at
    its defaults: bounded soil queues + pressure monitor
    ([Soil.default_overload]), control-channel protection
    ({!Control.default_protection}) and bounded harvester inboxes
    ([Harvester.default_overload]). *)
val overload_defaults : config

type task_spec = {
  ts_name : string;
  ts_source : string;  (** Almanac source of the task's machines *)
  ts_externals : (string * (string * Value.t) list) list;
      (** per machine: values for [external] variables *)
  ts_builtins : (string * (Value.t list -> Value.t)) list;
      (** host-side auxiliary functions *)
  ts_extra_sigs : (string * Farm_almanac.Typecheck.func_sig) list;
  ts_harvester : Harvester.spec;
  ts_adaptive : string list;
      (** poll variables the task's seeds may stretch under soil pressure
          (AIMD degraded mode); empty = fixed fidelity *)
}

(** A minimal spec with no externals/builtins and a collector harvester. *)
val simple_spec : name:string -> source:string -> task_spec

type task

type t

val create : ?config:config -> Farm_sim.Engine.t -> Farm_net.Fabric.t -> t

val engine : t -> Farm_sim.Engine.t
val fabric : t -> Farm_net.Fabric.t
val soil : t -> int -> Soil.t
val soils : t -> Soil.t list

(** Deploy a task: parse, check, lint, analyze, verify against deployed
    tasks, re-optimize the global placement and instantiate the task's
    seeds.  Fails (with a message) on syntax/type errors, error-severity
    lint diagnostics ([L105]–[L107]), analysis errors, or when the task
    cannot be placed; only a task that passes the static passes and the
    conflict check draws task and seed ids.  Every diagnostic the verification passes produced
    — including warnings that did not block the deployment — is available
    from {!last_deploy_diagnostics} afterwards. *)
val deploy : t -> task_spec -> (task, string) result

(** All diagnostics (lint, cross-task conflicts) produced by the most
    recent {!deploy} call, sorted. *)
val last_deploy_diagnostics : t -> Farm_almanac.Diagnostic.t list

(** Tear a task down, releasing its switch resources. *)
val undeploy : t -> task -> unit

(** Re-run global placement (resource depletion, topology change...);
    migrates seeds whose optimal location changed. *)
val reoptimize : t -> unit

(** {2 Failures}

    One failure path, two detectors.  {!crash_switch}/{!revive_switch} are
    the {e ground truth}: the management plane silently dies / reboots.
    The control plane learns of it only from the detector of {!healing},
    chosen once at {!create}: with [auto_heal] {!Healing.heartbeat}, which
    fires after [detection_timeout] of silence; without it
    {!Healing.oracle}, which declares the crash at the same instant and
    rejoins the switch at revival — zero latency, no false positives.  A
    declared switch's orphaned seeds are re-placed incrementally, resuming
    from their last checkpoint when one was shipped; a rejoined switch
    gets its fence lifted, its zombies terminated and a global
    re-optimization. *)

(** Silently crash a switch's management plane: every seed instance on it
    stops.  Tasks pinned solely to it are dropped once it is declared
    failed (C1).  Unknown nodes and already-crashed switches are
    ignored. *)
val crash_switch : t -> int -> unit

(** The crashed switch's management plane boots back up.  With [auto_heal]
    heartbeats resume on their own and the seeder rejoins the switch (or
    re-pushes its seeds) when it hears one; the oracle detector rejoins it
    at once.  Reviving a switch that is up is a no-op. *)
val revive_switch : t -> int -> unit

(** The self-healing layer: the detector's view of failed and down
    switches, zombies, and the healing counters. *)
val healing : t -> Healing.t

(** The control channel every seed, harvester and heartbeat message
    takes: faults are set and its counters read there. *)
val control : t -> Control.t

(** [Control.retransmissions] and [Control.lost_messages] of {!control} *)
val retransmissions : t -> int

val lost_messages : t -> int

(** {2 Introspection} *)

val harvester : task -> Harvester.t
val is_placed : task -> bool

(** Live seed instances of the task (one per placed seed). *)
val seeds : t -> task -> Seed_exec.t list

(** The seed of [machine] on switch [node], if any. *)
val seed_on : t -> task -> machine:string -> node:int -> Seed_exec.t option

val current_utility : t -> float

(** The live optimization instance (healthy switches; registered seeds with
    failed switches removed from their candidate sets) and the assignments
    currently in force — the inputs the chaos suite feeds to
    [Model.validate] and [Model.total_utility] to cross-check the runtime's
    own bookkeeping. *)
val placement_instance : t -> Farm_placement.Model.instance

val current_assignments : t -> Farm_placement.Model.assignment list

(** Raw (unfiltered) seed specs registered for the task, sorted by seed
    id. *)
val seed_specs : t -> task -> Farm_placement.Model.seed_spec list

(** Bytes and messages shipped to centralized components since start —
    the "network load towards the collector" of Fig. 4. *)
val collector_bytes : t -> float

val collector_messages : t -> int

(** Count of seed migrations performed so far. *)
val migrations : t -> int

(** {2 Self-healing introspection} *)

(** Seeds that hold an assignment but have no running instance and are
    not mid-migration, sorted.  Transiently non-empty between a crash and
    its detection; the chaos suite asserts it drains to [[]] once healing
    settles. *)
val orphaned_seeds : t -> int list

(** The seeder's accumulated checkpoint for a seed:
    (arrival time of the newest merged checkpoint, variables, state). *)
val last_checkpoint :
  t -> int -> (float * (string * Value.t) list * string) option

(** Current instance epoch of a registered seed ([-1] = never placed). *)
val seed_epoch : t -> int -> int option

(** {2 Healing counters}

    The {!Healing} counters of {!healing}.  [checkpoint_bytes] are the
    control-channel bytes spent on checkpoints (the cost side of the
    checkpoint-frequency trade-off; kept separate from
    {!collector_bytes}). *)

val recovery_time : t -> Farm_sim.Metrics.Histogram.t

val heartbeats_sent : t -> int
val checkpoints_shipped : t -> int
val checkpoint_bytes : t -> float
val detections : t -> int
val false_detections : t -> int

(** {2 Overload resilience} *)

(** Pressure flag flips observed across all soils. *)
val pressure_events : t -> int

(** Fault hook ([Fault.Report_storm]): every seed instance on [node]
    sends [reports] junk reports through the regular provenance-stamped
    path — fencing, dedup and the bounded inbox treat them as ordinary
    traffic. *)
val inject_report_storm : t -> node:int -> reports:int -> unit

(** {2 Determinism contract} *)

(** Canonical, human-readable text of everything a run can observe:
    engine dispatch count and clock, utility, failed and down switches,
    fabric flow counts, every task's harvester accounting and accepted
    provenance stream, every seed's placement, state, epoch, degradation,
    poll drops and variables plus the seeder-side checkpoint store, per-soil
    overload accounting and PCIe factor, the control-channel overload
    counters, every breaker that is not closed with zero failures and
    every switch with retries in flight, harvester window admits, and the
    metrics-registry snapshot.  Floats print as [%h], so
    two runs are bit-identical iff their digests are equal.  Only reads
    state.  Hash it with [Digest.string] when a constant is needed. *)
val digest : t -> string
