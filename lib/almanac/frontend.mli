(** The static front end: one definition of each step the seeder's
    deploy, [farmc] and the tests run before they act on an Almanac
    program.  DESIGN.md § Static verification tables which entry point
    runs which step. *)

(** Parse and type-check a source string.  A parse error is the single
    [P0xx] diagnostic; type errors are one per failing function or
    machine. *)
val load :
  ?extra:(string * Typecheck.func_sig) list ->
  string ->
  (Ast.program, Diagnostic.t list) result

(** The lint pass over a type-checked program as it is deployed:
    [externals] are the deployment bindings per machine, [reach] the
    reachability results that upgrade the verdicts (see {!verify}). *)
val lint_program :
  ?file:string ->
  ?externals:(string * (string * Value.t) list) list ->
  ?reach:Reach.result list ->
  Ast.program ->
  Diagnostic.t list

(** [farmc lint] on one program: load errors, or the lint pass plus the
    per-machine resource-bound cross-check ([B201]) under [model], sorted
    and stamped with [file].  [externals] are the deployment bindings per machine.
    The program is returned when it loaded, for cross-task conflict
    checks. *)
val lint :
  model:Bounds.cost_model ->
  file:string ->
  ?extra:(string * Typecheck.func_sig) list ->
  ?externals:(string * (string * Value.t) list) list ->
  string ->
  Diagnostic.t list * Ast.program option

(** The seeder's analyses ({!Analysis.summarize}) of each machine of a
    type-checked program on [topo], in program order: the summary with
    the bindings it was made under (the machine's entry in [externals]
    first, then its variables' literal initializers), or why the machine
    does not analyze. *)
val analyze :
  topo:Farm_net.Topology.t ->
  ?externals:(string * (string * Value.t) list) list ->
  Ast.program ->
  (Analysis.summary * Analysis.bindings, string) result list

(** Symbolic verification of a type-checked program: translation
    validation ({!Equiv}, [V401]/[V402]) and reachability ({!Reach},
    [V403]/[V404]), assuming {!Builtins.soil_effects} plus
    [host_builtins].  Returns the diagnostics and the reachability
    results that upgrade the lint verdicts. *)
val verify :
  ?budget:Symexec.budget ->
  ?host_builtins:string list ->
  Ast.program ->
  Diagnostic.t list * Reach.result list

(** [farmc verify] on one program: {!verify}'s diagnostics plus the
    reachability-backed lint verdicts ([L101]/[L102]/[L107]), sorted. *)
val verify_report :
  ?budget:Symexec.budget ->
  ?host_builtins:string list ->
  Ast.program ->
  Diagnostic.t list
