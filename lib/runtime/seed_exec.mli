(** A deployed seed: an Almanac machine instance executing on a switch via
    its soil.  Wires the interpreter's host interface to the soil (polling,
    probing, TCAM, resources, IPC) and supports live migration
    (snapshot → transfer → restore, §V-B). *)

module Value := Farm_almanac.Value
module Analysis := Farm_almanac.Analysis

type t

(** [deploy ~soil ~plan ...] instantiates the prepared machine on the
    soil's switch, subscribes its poll/probe/time triggers (periods derived
    from the allocated [resources] via the ival analysis) and enters the
    initial state.  [send] routes outgoing messages (wired by the seeder).
    [restore] resumes from a migrated snapshot instead of a fresh start.
    [plan] ({!Farm_almanac.Engine.prepare}) fixes the machine and the
    execution engine; the seeder prepares it once per task machine and
    every seed, migration and recovery of that machine shares it.
    [adaptive] names the poll variables whose period the seed may stretch
    in degraded mode (AIMD back-off under soil pressure or poll drops);
    ignored at [Soil.unlimited] limits, where no pressure tick ever
    comes. *)
val deploy :
  soil:Soil.t ->
  plan:Farm_almanac.Engine.plan ->
  ?externals:(string * Value.t) list ->
  ?builtins:(string * (Value.t list -> Value.t)) list ->
  ?restore:(string * Value.t) list * string ->
  ?epoch:int ->
  ?adaptive:string list ->
  resources:float array ->
  polls:Analysis.poll_summary list ->
  send:(t -> Farm_almanac.Host.target -> Value.t -> unit) ->
  seed_id:int ->
  unit ->
  t

val seed_id : t -> int

(** The prepared machine this instance was built from. *)
val plan : t -> Farm_almanac.Engine.plan

(** Instance epoch (default 0): bumped by the seeder on every
    (re)instantiation of the logical seed and stamped on every report so
    harvesters can fence off zombie instances. *)
val epoch : t -> int

(** Allocate the next report sequence number (monotonic per instance). *)
val alloc_seq : t -> int

(** Inbound copies {!deliver} dropped because this instance had already
    taken their message. *)
val duplicates_dropped : t -> int

val machine_name : t -> string
val node : t -> int
val soil : t -> Soil.t
val state : t -> string
val var : t -> string -> Value.t option
val resources : t -> float array

(** Reallocate resources (placement re-optimization): poll periods that
    depend on resources are rescheduled and the machine's [realloc] events
    fire. *)
val set_resources : t -> float array -> unit

(** The receipt of one logical control message, shared by all of its
    copies (retransmissions and ctrl-dup duplicates): one int, whatever
    the number of copies or instances. *)
type receipt

(** A receipt no instance has taken yet. *)
val receipt : unit -> receipt

(** Deliver a message from the harvester or another seed.  With
    [receipt], delivery is exactly-once per instance: a copy whose
    receipt already holds this instance's epoch is dropped and counted
    in {!duplicates_dropped}; otherwise the receipt takes this epoch and
    the handler runs (if the instance is alive).  This requires that
    every copy go to the instance of one logical seed that is current
    when the copy lands, as the seeder routes them: the epochs a
    message meets then only grow.  So a copy reaching a re-instantiated
    seed is taken once by the new instance.  Without [receipt] every
    call runs the handler. *)
val deliver :
  ?receipt:receipt -> t -> from:Farm_almanac.Host.source -> Value.t -> unit

(** Snapshot (variables, state) for migration. *)
val snapshot : t -> (string * Value.t) list * string

(** Stop execution and release soil subscriptions. *)
val destroy : t -> unit

(** Number of state transitions performed (experiment instrumentation). *)
val transitions : t -> int

val is_alive : t -> bool

(** {2 Degraded mode (overload resilience)} *)

(** [1 - s] for the current AIMD rate scale [s] in (0, 1] (1.0 = full
    fidelity), the value exported as the [seed.<id>.degradation] gauge. *)
val degradation : t -> float

(** Polls the soil dropped or shed on this seed (drop notifications). *)
val poll_drops : t -> int

(** Backpressure tick: [high:true] multiplicatively stretches the adaptive
    triggers' periods, [high:false] additively recovers them.  No-op for
    seeds without adaptive triggers.  Wired to the soil's pressure monitor
    at deploy time; exposed for tests. *)
val on_pressure : t -> high:bool -> unit
