(** Interpreter for Almanac machines — the execution core of a seed.

    The interpreter is host-agnostic: every effect (time, resources,
    messaging, TCAM access, polling-rate changes) goes through a {!host}
    record.  The FARM runtime wires the host to a soil on a simulated
    switch; tests can wire it to stubs. *)

(** The host interface is shared with the compiled engine ({!Exec}); the
    definitions live in {!Host} and are re-exported here by equation so
    [Interp.host] and [Host.host] are the same type, and
    [Interp.Runtime_error] is {!Host.Runtime_error}. *)

exception Runtime_error of string

(** Where a received message came from (pattern-matched by [recv]). *)
type source = Host.source = From_harvester | From_machine of string

(** A resolved [send] destination: the interpreter evaluates any [@dst]
    expression before handing the message to the host. *)
type target = Host.target = To_harvester | To_machine of string * int option

type host = Host.host = {
  h_now : unit -> float;
  h_resources : unit -> float array;
      (** allocated resources, indexed per {!Analysis.resource_index} *)
  h_send : target -> Value.t -> unit;
  h_set_trigger : string -> Ast.trigger_type -> Value.t -> unit;
      (** trigger variable reassigned at runtime (new struct or bare
          period); the host reschedules polling *)
  h_builtin : string -> (Value.t list -> Value.t) option;
      (** host-provided auxiliary functions; consulted before the pure
          built-ins *)
  h_on_transit : string -> string -> unit;  (** old state, new state *)
  h_log : string -> unit;
  h_trace : (string -> string -> unit) option;
      (** trigger-dispatch observability hook; see {!Host.host} *)
}

(** A do-nothing host for pure tests. *)
val null_host : host

type t

(** [create ~program ~machine host] instantiates machine [machine] of the
    (type-checked, inheritance-resolved) program.  [externals] assigns the
    machine's [external] variables — missing externals keep their declared
    initializer or type default. *)
val create :
  ?externals:(string * Value.t) list ->
  program:Ast.program ->
  machine:string ->
  host ->
  t

val machine : t -> Ast.machine
val current_state : t -> string

(** Value of a machine or current-state variable. *)
val var : t -> string -> Value.t option

(** Enter the initial state (fires its [enter] events). *)
val start : t -> unit

(** A trigger variable fired, carrying polled stats / a probed packet /
    the current time. *)
val fire_trigger : t -> string -> Value.t -> unit

(** [prepare_trigger t name] resolves trigger [name] once and returns a
    closure equivalent to [fire_trigger t name] (hot-path entry point of
    the {!Engine.S} interface). *)
val prepare_trigger : t -> string -> Value.t -> unit

(** Deliver a message; [true] when some [recv] event consumed it. *)
val deliver : t -> from:source -> Value.t -> bool

(** Resource reallocation notification (placement re-optimized). *)
val realloc : t -> unit

(** Serialize the mutable state (state name + variables) for seed
    migration, and restore it on another instance of the same machine. *)
val snapshot : t -> (string * Value.t) list * string

val restore : t -> vars:(string * Value.t) list -> state:string -> unit

(** Call an Almanac-defined auxiliary function directly (used by tests). *)
val call_function : t -> string -> Value.t list -> Value.t
