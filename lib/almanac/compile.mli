(** Compilation of type-checked Almanac machines to slot-indexed closures.

    Lowers an [Ast.machine] into closure code executed by {!Exec}: every
    variable becomes an integer slot in a flat [Value.t array] (globals /
    per-state locals / per-event frame) and a slot declared
    int/long/float keeps its number unboxed in a parallel [float array];
    every expression and statement compiles once into an OCaml closure
    (numbers travel in float registers, conditions as [bool]; a value
    built from literals alone, such as a trigger declaration's struct,
    is built here and shared by every instance); every call
    site is resolved here, so an instance only looks up host overrides
    (its call table holds [None] where none applies);
    event dispatch tables are precomputed per (state, trigger) pair; and
    in a loop, a run of numbers appended by [v = append(v, e)] to a
    frame list grows unboxed in O(1) until another read of [v], which
    then holds a packed list ([Value.Nums]) that [size] and [nth] read in
    place, so the stats helpers' loops are linear.
    Observationally equivalent to {!Interp} on type-checked programs (see
    DESIGN.md, "Almanac execution pipeline").  Compile once per machine;
    instantiate many times with {!Exec.create_compiled}.  A {!t} is
    immutable once built: every per-run value lives in the instance's
    {!env} (and [while] fuel is allocated per execution), so instances
    that share a [t] cannot observe each other.  The seeder relies on
    this: it compiles each task machine once ([Engine.prepare]) and every
    seed, migration and recovery of that machine shares the result.  An
    instance's state is plain data: its slot markers are immediates and
    its call table an option array, so a [Marshal] copy of a running
    world runs on. *)

(** Marker of a slot whose variable is not bound yet (the interpreter
    equivalent of a missing hashtable key).  Compared with physical
    equality; an immediate that no [Value.t] equals, so programs cannot
    forge it and a copied instance (e.g. through [Marshal]) still
    recognises it. *)
val absent : Value.t

(** Mutable execution environment threaded through compiled closures.
    [locals_names] always describes the layout of [locals]; during a
    transition it still names the old state's locals while initializers
    of the new state run.  [gnums] / [lnums] / [fnums] hold the unboxed
    numbers of the typed slots of [globals] / [locals] / [frame] (empty
    when a level has no typed slot). *)
type env = {
  host : Host.host;
  globals : Value.t array;
  gnums : float array;
  mutable state : int;
  mutable locals : Value.t array;
  mutable lnums : float array;
  mutable locals_names : string array;
  mutable frame : Value.t array;
  mutable fnums : float array;
  mutable pending : string option;
  mutable ret : Value.t;
      (** the value of a [return] that is ending its body, else
          {!absent}; a function call and [Exec]'s event runner clear it *)
  calls : (Value.t list -> Value.t) option array;
      (** per call site ({!t.c_call_sites}): the host's closure for the
          name, or [None] when the compiled code resolved the site *)
  regs : float array;  (** numeric registers (length 2) *)
  mutable other : Value.t;  (** a numeric code's non-number result *)
  hints : int array;
      (** per pending list variable ({!t.c_n_hints}): how many numbers
          its last packed run appended, the size of its next run's first
          buffer; it changes no value *)
}

type ecode = env -> Value.t
type scode = env -> unit

(** An empty float array: the numbers of a level without typed slots. *)
val no_nums : float array

(** A fresh frame of [n] unbound slots, and a float array of length [n]
    for its numbers; small ones are allocated inline, without a call into
    the runtime. *)
val new_frame : int -> Value.t array

val new_nums : int -> float array

(** [get vals nums i] is the value of slot [i] of a level ([absent] when
    unbound); [set vals nums i v] binds it, unboxing a number when the
    level has a float array. *)
val get : Value.t array -> float array -> int -> Value.t

val set : Value.t array -> float array -> int -> Value.t -> unit

type event_c = {
  ev_frame_size : int;
  ev_nums : bool;  (** the frame has a typed slot *)
  ev_binding : int option;  (** frame slot of the trigger/recv binding *)
  ev_body : scode;
}

type recv_c = { rc_typ : Ast.typ; rc_dest : Ast.dest; rc_ev : event_c }

type state_c = {
  st_name : string;
  st_local_names : string array;
  st_nums : bool;  (** some state local is typed *)
  st_local_inits : (int * ecode) array;
  st_enter : event_c array;
  st_exit : event_c array;
  st_realloc : event_c array;
  st_triggers : event_c array array;  (** indexed by trigger id *)
  st_recv : recv_c array;
}

(** {2 Verification plan}

    An inspectable mirror of every resolution decision this pass makes:
    frame slot layouts and bound sets, state-local and global slot
    tables, per-(state, trigger) dispatch tables with their source
    bodies, initializer order, and trigger-write hooks.  Built during
    compilation from the same layout tables the closures capture, so
    {!Equiv} validates the actual compile artifact and tests can corrupt
    a plan to prove divergences are caught. *)

type vframe = {
  vf_slots : (string * int) list;  (** name -> frame slot, sorted by slot *)
  vf_bound : string list;  (** names read without a presence check *)
  vf_size : int;
}

type vevent = {
  ve_frame : vframe;
  ve_binding : (string * int) option;
  ve_locals : (string * int) list option;
      (** static state-local table, [None] = dynamic resolution *)
  ve_body : Ast.stmt list;
}

type vinit = Vexpr of Ast.expr | Vdefault of Ast.typ | Vunit

type vstate = {
  vs_name : string;
  vs_local_names : string array;
  vs_local_inits : (int * string * vinit) list;
  vs_enter : vevent list;
  vs_exit : vevent list;
  vs_realloc : vevent list;
  vs_triggers : (string * vevent list) list;
  vs_recv : (Ast.typ * Ast.dest * vevent) list;
}

type vfunc = {
  vfn_params : (string * int) list;
  vfn_frame : vframe;
  vfn_body : Ast.stmt list;
}

type plan = {
  v_machine : string;
  v_initial : string;
  v_global_slots : (string * int) list;
  v_global_inits : (int * string * bool * vinit) list;
  v_trig_hooks : (string * Ast.trigger_type) list;
  v_trig_names : string list;
  v_states : vstate list;
  v_funcs : (string * vfunc) list;
}

type t = {
  c_machine : Ast.machine;
  c_n_globals : int;
  c_global_names : string array;
  c_global_slots : (string, int) Hashtbl.t;
  c_global_nums : bool;  (** some global is typed *)
  c_global_inits : (int * string * bool * ecode) array;
  c_states : state_c array;
  c_state_ids : (string, int) Hashtbl.t;
  c_trig_ids : (string, int) Hashtbl.t;
  c_call_sites : string array;
      (** per call site: the function name, which an instance asks its
          host for ([Host.h_builtin]) to fill {!env.calls} *)
  c_plan : plan;
  c_fused : int;
      (** how many nodes compiled to a fused shape: a closure that reads
          its typed frame slots and literals in place, with the general
          code as fallback (DESIGN.md, "Almanac execution pipeline") *)
  c_list_sites : int;
      (** how many appends compiled to a pending append, which packs a
          run of numbers; counted apart from [c_fused] *)
  c_n_hints : int;  (** how many pending list variables the machine has *)
}

(** Compile machine [machine] of a type-checked, inheritance-resolved
    program.  Raises {!Host.Runtime_error} on the same conditions as
    [Interp.create] (unknown machine, unresolved inheritance, no
    states). *)
val compile : program:Ast.program -> machine:string -> t
