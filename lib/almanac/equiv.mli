(** Translation validation of compiled Almanac machines.

    Symbolically executes every handler unit of a machine twice — once
    under the interpreter's scope-chain semantics and once under the
    slot-indexed semantics recorded in the {!Compile.plan} — and checks
    path-by-path that final stores, emitted effects, pending transits
    and outcomes agree.

    Diagnostics:
    - [V401] (error): semantic divergence, with the witness path
      condition and the first differing observation;
    - [V402] (warning): a unit could not be fully explored within the
      path/unroll budget; the message names the bounding knob
      ([--max-paths]). *)

(** Validate a compile plan against the (resolved) machine AST it was
    compiled from.  [funcs] are the program-level auxiliary functions;
    [host_builtins] defaults to {!Builtins.soil_effects}.  Exposed
    separately so tests can corrupt a plan and prove the divergence is
    caught. *)
val verify_plan :
  ?budget:Symexec.budget ->
  ?host_builtins:string list ->
  funcs:Ast.func_decl list ->
  machine:Ast.machine ->
  plan:Compile.plan ->
  unit ->
  Diagnostic.t list

(** Compile machine [machine] of a type-checked program and validate the
    resulting plan. *)
val verify :
  ?budget:Symexec.budget ->
  ?host_builtins:string list ->
  program:Ast.program ->
  machine:string ->
  unit ->
  Diagnostic.t list

(** Validate every concrete machine of a program. *)
val verify_program :
  ?budget:Symexec.budget ->
  ?host_builtins:string list ->
  program:Ast.program ->
  unit ->
  Diagnostic.t list
