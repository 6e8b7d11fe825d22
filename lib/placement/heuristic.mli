(** FARM's seed-placement heuristic (paper Alg. 1).

    1. Sort tasks by decreasing minimum utility.
    2. Greedily place each task's seeds at their minimal feasible
       allocation, preferring the current location of already-placed seeds
       (no unnecessary migration) and switches where polling aggregation
       makes the seed cheaper; a task that cannot be fully placed is
       removed (C1).
    3. Redistribute spare resources with one small LP per switch
       (switches with identical LPs share one solve).
    4. Compute per-seed migration benefits and
    5. apply migrations in decreasing benefit order, then redistribute
       again.

    Phases 3–5 can be disabled individually for ablation studies.  A
    call indexes its instance once (one shape per task machine, poll
    subjects interned, residents kept per switch) and keeps nothing
    between calls. *)

type phases = { redistribute : bool; migrate : bool }

val all_phases : phases
val greedy_only : phases

type stats = {
  placed_seeds : int;
  dropped_tasks : int;  (** tasks removed because a seed did not fit *)
  migrations : int;
  lp_solves : int;
      (** LPs solved: one per distinct branch (minimal allocation) and one
          per distinct switch shape (redistribution); identical LPs within
          a call are solved once *)
  runtime_s : float;
}

val optimize : ?phases:phases -> Model.instance -> Model.placement * stats

(** Incremental re-optimization after a localized change (a switch
    failure, one task arriving): only the [affected] seed ids are
    re-decided; every other seed with a live previous location is pinned
    there, so the pass costs one greedy placement over a mostly-fixed
    instance and never migrates unaffected seeds.  Falls back to a full
    {!optimize} if pinning would drop a task the previous placement
    carried. *)
val optimize_incremental :
  ?phases:phases ->
  Model.instance ->
  affected:int list ->
  Model.placement * stats
