(** Dense two-phase primal simplex for linear programs in the form

    {v maximize c.x  subject to  a_i.x (<= | >= | =) b_i,  x >= 0 v}

    This is the LP engine behind both the placement heuristic's resource
    redistribution step and the branch-and-bound MILP solver that plays the
    role of Gurobi in the paper's evaluation. *)

type cmp = Le | Ge | Eq

type constr = { expr : Lin_expr.t; cmp : cmp; rhs : float }
(** The constraint [expr cmp rhs].  Any constant term inside [expr] is moved
    to the right-hand side. *)

type solution = {
  objective : float;  (** optimal objective, constant term of c included *)
  values : float array;  (** one value per structural variable *)
}

type outcome = Optimal of solution | Infeasible | Unbounded

val constr : Lin_expr.t -> cmp -> float -> constr

(** [maximize ~nvars ~objective constraints] solves the LP over variables
    [x_0 .. x_(nvars-1)].  Variables referenced beyond [nvars-1] raise
    [Invalid_argument].

    [deadline] (absolute [Unix.gettimeofday] value) aborts long solves:
    an LP cut off mid-pivot reports [Infeasible] so callers fall back to
    their incumbent — the behaviour of a real solver hitting its time
    limit before finishing the root relaxation. *)
val maximize :
  ?deadline:float ->
  nvars:int -> objective:Lin_expr.t -> constr list -> outcome

(** Convenience wrapper negating the objective. *)
val minimize : nvars:int -> objective:Lin_expr.t -> constr list -> outcome
