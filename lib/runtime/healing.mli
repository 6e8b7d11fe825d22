(** The seeder's self-healing layer: how the control plane learns that a
    switch crashed or came back, and how seed state survives a crash.

    A {e detector} tells the control plane about ground-truth crashes and
    revivals ({!crash}, {!revive}).  The {!oracle} declares each crash at
    the instant it happens and rejoins the switch at revival: zero
    latency, no false positives, no heartbeats, no checkpoints.  The
    {!heartbeat} detector sends per-switch heartbeats over the control
    channel, declares a switch failed after [timeout] of silence, rejoins
    it when a heartbeat arrives again, and has every running seed ship
    periodic delta checkpoints of its machine state.

    The seeder re-places a declared switch's orphaned seeds, which resume
    from their last checkpoint.  Instances left running on a falsely
    suspected switch become {e zombies}: they are sent a kill order and
    terminated at the latest when the switch rejoins. *)

type t

(** How crashes are detected; chosen once, in {!create}. *)
type detector

val oracle : detector

(** Heartbeats every [interval] seconds; a switch silent for longer than
    [timeout] is declared failed.  Seeds ship a checkpoint every
    [checkpoint_interval] seconds ([0] ships none).  Raises
    [Invalid_argument] unless [interval > 0]. *)
val heartbeat :
  interval:float -> timeout:float -> checkpoint_interval:float -> detector

(** Every [full_every]-th checkpoint of an instance is a full snapshot.  The
    seeder's placement reactions: [fail_over node] demotes the instances
    on a declared switch (with {!demote}) and re-places its orphaned
    seeds; [reoptimize ()] re-places everything when a failed switch
    rejoins; [repush node] re-instantiates the seeds assigned to a
    heartbeating switch whose instances died unseen.  [fail_over] and
    [repush] return how many seeds run again.  Registers the healing
    metrics under [seeder.*]; arms no timer. *)
val create :
  Farm_sim.Engine.t -> Control.t -> detector -> full_every:int ->
  fail_over:(int -> int) -> reoptimize:(unit -> unit) -> repush:(int -> int) ->
  t

(** Arm the detector's timers over [nodes], the switches that have a
    soil, in id order: one heartbeat timer per switch, then the timeout
    sweep (none for the oracle). *)
val start : t -> nodes:int list -> unit

(** The switch's management plane died (its instances are already
    stopped), or booted back up. *)
val crash : t -> int -> unit

val revive : t -> int -> unit

(** Ground truth, and the control-plane view (declared failed, not yet
    rejoined). *)
val is_down : t -> int -> bool

val is_failed : t -> int -> bool

(** The same two views as sorted lists. *)
val down_switches : t -> int list

val failed_switches : t -> int list

(** {2 Checkpoints and zombies} *)

(** One seed's checkpoint state: sender sequence, delta base, timer, and
    the seeder-side accumulated copy. *)
type ck

val ck : unit -> ck

(** A new instance of the seed runs: restart its checkpoint sequence and,
    when the detector ships checkpoints, its timer.  [epoch ()] is the
    seed's epoch when a checkpoint arrives. *)
val start_checkpoints : t -> ck -> epoch:(unit -> int) -> Seed_exec.t -> unit

val stop_checkpoints : ck -> unit

(** The seeder-side merge of one arriving checkpoint, given the seed's
    current [epoch]: a checkpoint of another epoch is dropped; a duplicate
    or reordered [ck_seq] is ignored; a delta that does not directly
    follow the stored one is counted in [seeder.checkpoints.gaps] and
    waits for the next full snapshot; a full snapshot replaces the
    store. *)
val merge : t -> ck -> epoch:int -> Checkpoint.t -> unit

(** Arrival time of the newest merged checkpoint, variables, state. *)
val last_checkpoint :
  ck -> (float * (string * Farm_almanac.Value.t) list * string) option

(** Stop the instance's checkpoints, keep it as a zombie and send it a
    kill order. *)
val demote : t -> ck -> Seed_exec.t -> unit

(** {2 Introspection} *)

(** Crash → declaration latency over true failures, and crash →
    replacement-running latency per recovered seed. *)
val detection_latency : t -> Farm_sim.Metrics.Histogram.t

val recovery_time : t -> Farm_sim.Metrics.Histogram.t

val heartbeats_sent : t -> int
val checkpoints_shipped : t -> int
val checkpoint_bytes : t -> float

(** Detector declarations, and the false positives among them. *)
val detections : t -> int

val false_detections : t -> int

(** Seed instances re-placed and resumed, after detections and on
    reboot-rejoin. *)
val auto_recoveries : t -> int

(** Demoted instances terminated, and those still live. *)
val zombies_fenced : t -> int

val zombie_count : t -> int

(** Appends [" store@<time> <checkpoint XML>"] when the seed has an
    accumulated checkpoint. *)
val digest_store : Buffer.t -> seed:int -> ck -> unit
