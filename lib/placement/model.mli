(** The seed-placement optimization model of §IV: elements (Tab. II),
    inputs (Tab. III), the monitoring-utility objective (MU), migration
    overhead, polling-aggregation benefits, and constraints (C1)–(C4).

    Both solvers ({!Heuristic} and {!Milp_formulation}) consume this model;
    {!validate} is the shared oracle checking (C1)–(C4) on any produced
    placement. *)

module Analysis := Farm_almanac.Analysis

(** A polling requirement of a seed: what it polls and how the interval
    depends on allocated resources. *)
type poll_req = {
  subject : Farm_net.Filter.subject;
  ival : Analysis.ival_spec;
}

(** One seed to place (derived from a machine's analysis by the seeder). *)
type seed_spec = {
  seed_id : int;
  task_id : int;
  candidates : int list;  (** N{^s}: switch ids where the seed may run *)
  branches : Analysis.util_branch list;
      (** utility alternatives (≥1); exactly one is active when placed *)
  polls : poll_req list;
}

type switch_caps = {
  node : int;
  avail : float array;  (** ares(n, r), indexed by {!Analysis.resource_index} *)
}

type instance = {
  seeds : seed_spec list;
  switches : switch_caps list;
  alpha_poll : float;  (** α{_poll}: polling cost coefficient *)
  previous : assignment list;  (** current placement, for migration costs *)
}

and assignment = {
  a_seed : int;
  a_node : int;
  a_branch : int;  (** which utility branch is active *)
  a_res : float array;  (** res(s, n, r) *)
}

type placement = { assignments : assignment list; utility : float }

val empty_placement : placement

(** Total utility (MU) of a set of assignments. *)
val total_utility : instance -> assignment list -> float

(** PCIe (r{_poll}) demand on switch [node] under the given assignments,
    with aggregation: per polling subject, the demand is the {e maximum}
    over co-located seeds (polling once at the fastest rate serves all). *)
val poll_demand : instance -> assignment list -> node:int -> float

(** Check (C1)–(C4); returns human-readable violations (empty = valid). *)
val validate : instance -> assignment list -> string list

val seed : instance -> int -> seed_spec

(** [seed_index inst] indexes the seeds by id once; the returned lookup
    agrees with {!seed} (first seed of an id wins) and costs O(1). *)
val seed_index : instance -> int -> seed_spec option

val caps : instance -> int -> switch_caps

(** Seeds grouped by task. *)
val tasks : instance -> (int * seed_spec list) list

(** Upper bound on one seed's utility given the largest switch (used for
    big-M linearization). *)
val utility_upper_bound : instance -> seed_spec -> float

(** {2 Random instances (evaluation workloads, Fig. 7)} *)

(** Generate an instance with [switches] nodes and [tasks] tasks whose
    seeds have randomized resource demands and candidate sets, mirroring
    the paper's placement benchmark ("up to 10 different tasks ... varying
    resource and placement needs"). *)
val random_instance :
  rng:Farm_sim.Rng.t ->
  switches:int ->
  tasks:int ->
  seeds_per_task:int ->
  unit ->
  instance
