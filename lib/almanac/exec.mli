(** Execution engine for compiled Almanac machines — the fast path of a
    seed.  API mirrors {!Interp}; semantics are the interpreter's (checked
    by the differential suite in [test/test_almanac.ml]). *)

type t

(** Compile and instantiate in one step (same signature as
    [Interp.create]), for one-off instances.  Code that creates several
    instances of a machine compiles once and uses {!create_compiled}. *)
val create :
  ?externals:(string * Value.t) list ->
  program:Ast.program ->
  machine:string ->
  Host.host ->
  t

(** Instantiate an already-compiled machine: fresh globals, state locals
    and call table, then the machine's initializers (an [externals]
    binding replaces the initializer of an [external] variable).  The
    {!Compile.t} is only read, so any number of instances can share it;
    [Engine.instantiate] calls this for the seeder's per-task plans. *)
val create_compiled :
  ?externals:(string * Value.t) list -> Compile.t -> Host.host -> t

val machine : t -> Ast.machine
val current_state : t -> string

(** Value of a machine or current-state variable. *)
val var : t -> string -> Value.t option

(** Enter the initial state (fires its [enter] events). *)
val start : t -> unit

(** A trigger variable fired, carrying polled stats / a probed packet /
    the current time. *)
val fire_trigger : t -> string -> Value.t -> unit

(** [prepare_trigger t name] resolves trigger [name] to its dispatch-table
    index once and returns the firing closure — the hot-path entry point
    (an array index plus closure calls per event). *)
val prepare_trigger : t -> string -> Value.t -> unit

(** Deliver a message; [true] when some [recv] event consumed it. *)
val deliver : t -> from:Host.source -> Value.t -> bool

(** Resource reallocation notification (placement re-optimized). *)
val realloc : t -> unit

(** Serialize the mutable state (state name + variables) for seed
    migration, and restore it on another instance of the same machine. *)
val snapshot : t -> (string * Value.t) list * string

val restore : t -> vars:(string * Value.t) list -> state:string -> unit

(** Call an Almanac-defined auxiliary function directly (used by tests). *)
val call_function : t -> string -> Value.t list -> Value.t
