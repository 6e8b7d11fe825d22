(** Bounded symbolic execution of Almanac handler bodies.

    Runs a handler over symbolic inputs under either engine's scoping
    semantics — the interpreter's scope chain ({!Istore}) or the
    compiled plan's slot-indexed cells ({!Pstore}, driven by
    {!Compile.plan}) — forking on symbolic branches and accumulating
    path conditions.  Feasibility is decided without a solver (polarity
    contradiction + interval reasoning over constant comparisons), a
    sound over-approximation: a feasible path is never dropped.

    Clients: {!Equiv} (translation validation, V401/V402), {!Reach}
    (inter-handler reachability, V403/V404) and the qcheck
    symbolic-vs-concrete soundness property ({!eval_sym}/{!pc_sat}). *)

(** {2 Symbolic values} *)

type sym =
  | Con of Value.t  (** concrete *)
  | Svar of string * Ast.typ option  (** free symbolic input *)
  | Sfield of sym * string
  | Sapp of string * sym list  (** pure call, uninterpreted *)
  | Sopaque of string * int  (** result of the n-th effectful call *)
  | Sunop of Ast.unop * sym
  | Sbinop of Ast.binop * sym * sym
  | Slist of sym list  (** known spine, symbolic elements *)
  | Sstats of sym array
  | Sstruct of string * (string * sym) list

val slist : sym list -> sym
val sstats : sym array -> sym
val sym_to_string : sym -> string
val sym_equal : sym -> sym -> bool

(** {2 Path conditions} *)

(** A path condition is a list of atoms; an atom [(t, b)] asserts term
    [t] is truthy iff [b]. *)
val feasible : (sym * bool) list -> bool
val pc_to_string : (sym * bool) list -> string

(** {2 Stores} *)

type store

(** Interpreter-semantics store seeded with machine globals and current
    state locals (name -> initial symbolic value). *)
val mk_istore :
  globals:(string * sym) list -> locals:(string * sym) list -> store

(** Plan-semantics store over the compiled slot layout; names absent
    from the lists start unbound (the [absent] sentinel). *)
val mk_pstore :
  plan:Compile.plan ->
  globals:(string * sym) list ->
  state:Compile.vstate ->
  locals:(string * sym) list ->
  store

val peek_global : store -> string -> sym option
val peek_local : store -> string -> sym option

(** {2 Paths} *)

type starget = To_harvester | To_machine of string * sym option

type effect_ =
  | Esend of starget * sym
  | Ecall of string * sym list  (** effectful host/builtin call *)
  | Etrig of string * Ast.trigger_type * sym  (** trigger-variable write *)

val effect_to_string : effect_ -> string

type pend = Pconc of string * Ast.pos | Psym of sym * Ast.pos

type outcome =
  | Running  (** completed normally *)
  | Err of string  (** runtime failure on this path *)
  | Aviol of Ast.pos  (** an [assert] can fail here *)
  | Unknown of string  (** budget exhausted; reason names the knob *)

type path = {
  pc : (sym * bool) list;  (** newest first *)
  store : store;
  effects : effect_ list;  (** newest first *)
  pending : pend option;
  outcome : outcome;
  ret : sym option;
  n_opaque : int;
  depth : int;
  obligations : (string * sym * sym * Ast.pos) list;
      (** (builtin, container, symbolic index, site) — V404 candidates *)
  cur_pos : Ast.pos;
}

val init_path : store -> path

(** {2 Execution context} *)

type budget = { max_paths : int; max_unroll : int; max_inline : int }

val default_budget : budget

type funcs =
  | Ifuncs of (string * Ast.func_decl) list
  | Pfuncs of (string * Compile.vfunc) list

type ctx

val make_ctx :
  ?budget:budget ->
  ?host_builtins:string list ->
  funcs:funcs ->
  hooks:(string * Ast.trigger_type) list ->
  unit ->
  ctx

(** {2 Drivers} *)

val exec_stmts : ctx -> path -> Ast.stmt list -> path list

(** One event of a dispatch sequence with its side-specific frame. *)
type event_u = { eu_body : Ast.stmt list; eu_frame : frame_u }

and frame_u =
  | Fnames of (string * sym) list  (** interpreter: fresh frame *)
  | Fplan of Compile.vevent  (** plan: recorded layout + binding slot *)

(** Run the events of one dispatch in sequence; [binding] is the
    trigger/recv payload installed in each event's frame. *)
val run_events : ctx -> store -> event_u list -> binding:sym -> path list

type init_u = {
  iu_name : string;
  iu_slot : int option;  (** plan side *)
  iu_kind :
    [ `Expr of Ast.expr | `Default of Ast.typ | `Unit | `External of sym ];
}

(** Progressive initialization (globals at create, initial-state locals
    at start): each initializer sees the previous writes. *)
val run_inits_progressive :
  ctx -> store -> [ `Globals | `Locals ] -> init_u list -> path list

(** Transit-mode local initialization: initializers read the old
    state's locals; the new locals replace them wholesale at the end. *)
val run_local_inits_transit :
  ctx -> store -> new_names:string array -> init_u list -> path list

(** {2 Concrete replay} *)

(** Evaluate a term under a concrete assignment of the free [Svar]s.
    Raises {!Host.Runtime_error} on host-dependent terms. *)
val eval_sym : (string -> Value.t) -> sym -> Value.t

(** Does a concrete assignment satisfy a path condition? *)
val pc_sat : (string -> Value.t) -> (sym * bool) list -> bool
