(** Cross-task conflict detection ([C3xx] diagnostics).

    Tasks are verified in isolation, but they share switches: a TCAM rule
    installed by one task matches traffic another task enforces or
    measures.  This pass harvests every statically-known TCAM rule
    pattern and polling/probing filter from each task's machines, and for
    every pair of tasks whose candidate switch sets intersect reports:

    - [C301] (warning) both tasks may install traffic-affecting TCAM
      rules (drop / rate-limit / unknown external action) with
      overlapping patterns — whichever is installed first wins, and the
      loser's enforcement silently degrades;
    - [C302] (warning) one task polls or probes traffic that the other
      may drop or rate-limit — the measurement is blinded by the rule.

    Pattern overlap is decided by a sound approximation: filters are
    expanded to DNF and two filters are declared disjoint only when every
    pair of conjunctions contains provably contradictory atoms (different
    protocol constants, disjoint prefixes on the same side, different
    port constants on the same side).  Rules whose pattern is computed at
    runtime ([mkRule(srcIP attacker, ...)]) conservatively overlap
    everything. *)

module Ast := Farm_almanac.Ast
module Analysis := Farm_almanac.Analysis
module Diagnostic := Farm_almanac.Diagnostic

(** One [addTCAMRule] call site. *)
type rule_site = {
  r_pattern : Farm_net.Filter.t option;
      (** [None] when the pattern is computed at runtime *)
  r_affecting : bool;
      (** drop / rate-limit / unknown action — affects matching traffic *)
  r_machine : string;
  r_pos : Ast.pos;
}

(** What one task exposes to the shared switches. *)
type profile = {
  p_task : string;
  p_switches : int list;  (** union of candidate switches, sorted *)
  p_rules : rule_site list;
  p_monitors : (string * Farm_net.Filter.t) list;
      (** ["machine.pollvar"], polling/probing filter *)
}

(** Sound filter-overlap approximation: [false] only when provably
    disjoint. *)
val overlap : Farm_net.Filter.t -> Farm_net.Filter.t -> bool

(** Build a task's profile from its machine analyses, each paired with
    the bindings used to resolve its [external] variables. *)
val profile :
  task:string -> (Analysis.summary * Analysis.bindings) list -> profile

(** All pairwise conflicts; at most one [C301] and one [C302] diagnostic
    per unordered task pair and direction. *)
val check : profile list -> Diagnostic.t list

(** Conflicts a new task introduces against already-deployed ones. *)
val check_against : profile -> profile list -> Diagnostic.t list
