(** The common interface of the two Almanac execution engines: the
    reference tree-walking interpreter ({!Interp}) and the slot-compiled
    engine ({!Exec}).  The runtime picks one per task
    ([Seeder.config.engine], default [`Compiled]); the interpreter remains
    selectable as the executable reference semantics (see DESIGN.md,
    "Almanac execution pipeline").

    Creation is split in two: {!prepare} does the per-machine work once
    (for [`Compiled], the whole compilation), and {!instantiate} builds
    one running instance from that plan.  A plan is immutable, so every
    seed, migration and recovery of a task's machine can share one. *)

type engine = [ `Interp | `Compiled ]

module type S = sig
  type t

  (** What {!prepare} leaves for {!instantiate}: the per-machine work
      every instance shares. *)
  type plan

  val kind : engine
  val prepare : program:Ast.program -> machine:string -> plan

  val instantiate :
    ?externals:(string * Value.t) list -> plan -> Host.host -> t

  val machine : t -> Ast.machine
  val current_state : t -> string
  val var : t -> string -> Value.t option
  val start : t -> unit
  val fire_trigger : t -> string -> Value.t -> unit

  (** Resolve a trigger name once; the returned closure is the hot-path
      firing entry point. *)
  val prepare_trigger : t -> string -> Value.t -> unit

  val deliver : t -> from:Host.source -> Value.t -> bool
  val realloc : t -> unit
  val snapshot : t -> (string * Value.t) list * string
  val restore : t -> vars:(string * Value.t) list -> state:string -> unit
  val call_function : t -> string -> Value.t list -> Value.t
end

(* The interpreter resolves everything per instance: its plan is the
   program and the machine name. *)
module Interp_engine :
  S with type t = Interp.t and type plan = Ast.program * string = struct
  include Interp

  type plan = Ast.program * string

  let kind = `Interp
  let prepare ~program ~machine = (program, machine)

  let instantiate ?externals (program, machine) host =
    create ?externals ~program ~machine host
end

module Compiled_engine :
  S with type t = Exec.t and type plan = Compile.t = struct
  include Exec

  type plan = Compile.t

  let kind = `Compiled
  let prepare = Compile.compile
  let instantiate = create_compiled
end

(** A prepared machine packed with its engine: what a task shares among
    its seeds. *)
type plan = Plan : (module S with type plan = 'p) * 'p -> plan

(** An engine instance packed with its module — what the runtime stores
    per seed. *)
type instance = Inst : (module S with type t = 'a) * 'a -> instance

(** Do the per-machine work once.  Raises {!Host.Runtime_error} on an
    unknown machine, unresolved inheritance or a machine without states
    ([`Compiled]; the interpreter raises the same at {!instantiate}). *)
let prepare ~engine ~program ~machine =
  match engine with
  | `Interp ->
      Plan ((module Interp_engine), Interp_engine.prepare ~program ~machine)
  | `Compiled ->
      Plan ((module Compiled_engine), Compiled_engine.prepare ~program ~machine)

(** A fresh instance of a prepared machine on [host]. *)
let instantiate ?externals (Plan ((module E), p)) host =
  Inst ((module E), E.instantiate ?externals p host)

let kind (Inst ((module E), _)) = E.kind
let machine (Inst ((module E), t)) = E.machine t
let current_state (Inst ((module E), t)) = E.current_state t
let var (Inst ((module E), t)) name = E.var t name
let start (Inst ((module E), t)) = E.start t
let fire_trigger (Inst ((module E), t)) name value = E.fire_trigger t name value
let prepare_trigger (Inst ((module E), t)) name = E.prepare_trigger t name
let deliver (Inst ((module E), t)) ~from value = E.deliver t ~from value
let realloc (Inst ((module E), t)) = E.realloc t
let snapshot (Inst ((module E), t)) = E.snapshot t

let restore (Inst ((module E), t)) ~vars ~state = E.restore t ~vars ~state

let call_function (Inst ((module E), t)) name argv = E.call_function t name argv
