(** Interpreter for Almanac machines — the execution core of a seed.

    The interpreter is host-agnostic: every effect (time, resources,
    messaging, TCAM access, polling-rate changes) goes through a {!Host.host}
    record.  The FARM runtime wires the host to a soil on a simulated
    switch; tests can wire it to stubs.  Besides {!create}, the API is
    the instance half of the {!Engine.S} contract, as in {!Exec}. *)

type t

(** [create ~program ~machine host] instantiates machine [machine] of the
    (type-checked, inheritance-resolved) program.  [externals] assigns the
    machine's [external] variables — missing externals keep their declared
    initializer or type default. *)
val create :
  ?externals:(string * Value.t) list ->
  program:Ast.program ->
  machine:string ->
  Host.host ->
  t

val machine : t -> Ast.machine
val current_state : t -> string

(** Value of a machine or current-state variable. *)
val var : t -> string -> Value.t option

(** Enter the initial state (fires its [enter] events). *)
val start : t -> unit

(** [prepare_trigger t name] is the firing closure of trigger variable
    [name]; applying it fires the trigger with the polled stats / probed
    packet / current time it carries.  The interpreter resolves nothing
    ahead: this is a partial application. *)
val prepare_trigger : t -> string -> Value.t -> unit

(** Deliver a message; [true] when some [recv] event consumed it. *)
val deliver : t -> from:Host.source -> Value.t -> bool

(** Resource reallocation notification (placement re-optimized). *)
val realloc : t -> unit

(** Serialize the mutable state (state name + variables) for seed
    migration, and restore it on another instance of the same machine. *)
val snapshot : t -> (string * Value.t) list * string

val restore : t -> vars:(string * Value.t) list -> state:string -> unit
