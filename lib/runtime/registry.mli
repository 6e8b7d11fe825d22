(** The seeder's registry: deployed tasks and their seeds in one store
    ordered by id, allocated here in deploy order and never reused.
    Every walk visits ascending ids: the order of same-time engine events,
    of the placement instance and of {!digest}. *)

module Value := Farm_almanac.Value
module Model := Farm_placement.Model

type task = {
  task_id : int;
  name : string;
  builtins : (string * (Value.t list -> Value.t)) list;
  adaptive : string list;
  profile : Farm_placement.Conflict.profile;  (** checked by later deploys *)
  mutable harvester : Harvester.t option;
  mutable placed : bool;
  mutable regs : reg list;  (** registered seeds, in seed-id order *)
}

(** One seed of one task. *)
and reg = {
  r_spec : Model.seed_spec;
  r_task : task;
  r_machine : string;
  r_plan : Farm_almanac.Engine.plan Lazy.t;
      (** prepared once per task machine and shared by its seeds, their
          migrations and recoveries; it dies with the registrations *)
  r_polls : Farm_almanac.Analysis.poll_summary list;
  r_externals : (string * Value.t) list;
  mutable r_exec : Seed_exec.t option;
  mutable r_migrating : bool;
  mutable r_epoch : int;  (** epoch of the current/last instance *)
  r_ck : Healing.ck;  (** checkpoints: sender side and seeder-side store *)
}

type t

val create : unit -> t
val fresh_seed_id : t -> int
val fresh_task_id : t -> int

(** Enter a task and its seeds, given in seed-id order, as [task.regs]. *)
val register : t -> task -> reg list -> unit

(** Remove a task and its seeds, and empty [task.regs]. *)
val unregister : t -> task -> unit

val find : t -> int -> reg option
val mem : t -> int -> bool

(** In seed-id order. *)
val iter_seeds : t -> (reg -> unit) -> unit

(** [f r exec] for each seed whose instance [exec] runs on the node, in
    seed-id order. *)
val iter_on : t -> int -> (reg -> Seed_exec.t -> unit) -> unit

(** In task-id order. *)
val tasks : t -> task list

(** The placement instance's seeds, in seed-id order: every seed's spec
    minus the [failed] switches, without seeds left with no candidate.  A
    spec with no failed candidate is the registered one, not a copy. *)
val placement_seeds : t -> failed:(int -> bool) -> Model.seed_spec list

(** One [task …] line per task (placement, harvester accounting), then
    one [seed …] line per seed (epoch, instance state in the checkpoint
    wire form, seeder-side checkpoint store). *)
val digest : Buffer.t -> t -> unit
