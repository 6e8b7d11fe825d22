(** Inter-handler state-machine reachability for Almanac machines.

    A fixpoint over (state, abstract store) with interval widening on
    counters: handlers are symbolically executed ({!Symexec}), paths are
    pruned against the abstract store, and transits flow the abstract
    post-store through exit events, the target's transit-mode local
    initializers and its enter events.

    Products: the semantically reachable states, the effective transit
    sites and the guaranteed enter-transit cycles (consumed by {!Lint}
    to upgrade L101/L102/L107 to reachability-backed verdicts), [V403]
    errors for user [assert(..)] invariants that admit a feasible
    violating path (with a concrete witness) and [V404] warnings for
    possibly out-of-range TCAM/stat/list indices. *)

type result = {
  machine : string;
  reachable : string list;  (** states semantically reachable *)
  effective_transits : (Ast.pos * string) list;
      (** transit sites that decide the next state on a feasible path *)
  livelock : string list option;
      (** a guaranteed enter-transit cycle, if one exists *)
  diags : Diagnostic.t list;  (** V403 invariant violations, V404 ranges *)
  complete : bool;
      (** false when an exploration budget was exhausted; precise
          claims (unreachable / dead / livelock) must then be withheld *)
}

(** Analyze one (resolved) machine; [funcs] are the program-level
    auxiliary functions. *)
val analyze :
  ?budget:Symexec.budget ->
  ?host_builtins:string list ->
  funcs:Ast.func_decl list ->
  machine:Ast.machine ->
  unit ->
  result

(** Analyze every concrete machine of a program. *)
val analyze_program :
  ?budget:Symexec.budget ->
  ?host_builtins:string list ->
  program:Ast.program ->
  unit ->
  result list
