(** Static analyses of Almanac machines (§III-B): everything the seeder
    derives from a program before placement optimization.

    - {b Placement} (π⟦·⟧): resolve [place] directives against the topology
      into seeds and their candidate switch sets N{^s}.
    - {b Utility} (κ{^s}⟦·⟧, ε{^s}⟦·⟧): turn each state's [util] callback
      into explicit resource-constraint polynomials C{^s} and a utility
      function u{^s}, both linear (with min-combinations), suitable for the
      LP/MILP placement model.  [or]-conditions and [max] produce several
      branches — the "seed copies, at most one placed" of §III-B b.
    - {b Polling} (φ{^s}⟦·⟧, φ{_enc}): for each poll variable, the polling
      subjects and the interval as a function of allocated resources. *)

(** The resource types tracked by the soil (order fixes LP variable
    indices). *)
type resource = VCpu | Ram | TcamR | Pcie

val n_resources : int
val resource_index : resource -> int
val resource_name : resource -> string
val all_resources : resource list

(** {2 Utility analysis} *)

(** One alternative of a utility function: place the seed with resources
    [r] satisfying [c(r) >= 0] for every [c] in [constraints]; the yield is
    [min] over [utility] (a single-element list is just linear). *)
type util_branch = {
  constraints : Farm_optim.Lin_expr.t list;
  utility : Farm_optim.Lin_expr.t list;  (** min of these *)
}

type util_summary = util_branch list

(** Bindings for [external] variables (and any machine constant needed to
    evaluate analysis-time expressions). *)
type bindings = string -> Value.t option

val no_bindings : bindings

(** Analyze a [util] block.  Fails on non-linear utilities (the paper
    restricts [util] so this cannot happen for type-checked programs,
    except division by a non-constant). *)
val utility :
  ?bindings:bindings -> Ast.util_decl -> (util_summary, string) result

(** Utility of a seed whose state lacks a [util] block: a single
    unconstrained branch with utility 0. *)
val default_utility : util_summary

(** Evaluate a branch under concrete resource amounts. *)
val eval_utility : util_branch -> float array -> float

val branch_feasible : util_branch -> float array -> bool

(** {2 Polling analysis} *)

(** The polling interval as a function of allocated resources.  The paper
    requires 1/ival to be linear; [Const] covers resource-independent
    rates. *)
type ival_spec =
  | Const_ival of float
  | Inv_linear of Farm_optim.Lin_expr.t
      (** the {e inverse} 1/ival, linear over resource variables *)

(** Polls per second under a resource assignment. *)
val poll_rate : ival_spec -> float array -> float

type poll_summary = {
  poll_name : string;
  ptrig : Ast.trigger_type;
  what : Farm_net.Filter.t;
  subjects : Farm_net.Filter.subject list;  (** φ{_enc}(φ{^s}⟦what⟧) *)
  ival : ival_spec;
}

(** All poll/probe/time variables of a machine with their analysis. *)
val polls :
  ?bindings:bindings -> Ast.machine -> (poll_summary list, string) result

(** The atom a filter head builds from its evaluated argument (a string
    for IP and protocol heads, a truncated number for port heads, an
    [ANY] filter passes through).  {!eval_filter} and both engines build
    their atoms here and word the errors themselves. *)
val filter_atom :
  Ast.filter_head ->
  Value.t ->
  ( Farm_net.Filter.t,
    [ `Bad_prefix of string | `Bad_proto of string | `Bad_arg ] )
  result

(** φ{^s}⟦·⟧: evaluate a filter expression to a closed filter. *)
val eval_filter :
  ?bindings:bindings -> Ast.expr -> (Farm_net.Filter.t, string) result

(** {2 Placement analysis} *)

(** One seed to place: candidate switches and, for bookkeeping, which
    [place] directive produced it. *)
type seed_site = { candidates : int list; directive : int }

(** π⟦·⟧: resolve a machine's [place] directives against a topology.
    Returns one entry per seed. *)
val placement :
  ?bindings:bindings ->
  topo:Farm_net.Topology.t ->
  Ast.machine ->
  (seed_site list, string) result

(** {2 Whole-machine summary} *)

type summary = {
  machine : Ast.machine;
  seeds : seed_site list;
  (* per state: the utility branches *)
  state_utils : (string * util_summary) list;
  poll_vars : poll_summary list;
}

val summarize :
  ?bindings:bindings ->
  topo:Farm_net.Topology.t ->
  Ast.machine ->
  (summary, string) result
