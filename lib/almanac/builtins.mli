(** The runtime library of Almanac: one {!catalogue} row per built-in.
    The type checker, both engines, the symbolic passes, {!Bounds} and
    the soil host all read this module; none keeps its own list of
    built-in names. *)

(** Evaluate a filter atom head applied to an already-evaluated argument
    ({!Analysis.filter_atom}, failing with the engines' error texts). *)
val filter_atom_value : Ast.filter_head -> Value.t -> Farm_net.Filter.t

(** {2 Index rules}

    The index conversion and bounds checks of [nth], [set_nth] and
    [stat], also used by the symbolic executor's folds over known lists
    and stats.  Each raises {!Host.Runtime_error} out of bounds. *)

(** A number as an index (truncated; fails on other kinds). *)
val index : Value.t -> int

val nth_in : 'a list -> int -> 'a
val set_nth_in : 'a list -> int -> 'a -> 'a list

(** [check_stat i size] fails unless [0 <= i < size]. *)
val check_stat : int -> int -> unit

(** A list-free entry of a built-in, for the compiled engine.  Numbers
    travel in a register array [r]: numeric arguments in [r.(0)],
    [r.(1)], a numeric result in [r.(0)], so no float is boxed.  An entry
    may only be used when every numeric argument evaluated to a
    [Value.Num]; it then behaves exactly as the reference [call],
    including its errors.  Otherwise the caller falls back to [call]. *)
type fast =
  | Generic  (** list convention only *)
  | Num_of_nums of (float array -> unit)
      (** numeric arguments -> number ([min], [max], [floor], [abs]) *)
  | Num_of_value of (float array -> Value.t -> unit)
      (** one value -> number ([size], [stats_size]) *)
  | Num_of_value_num of (float array -> Value.t -> unit)
      (** a value and a number in [r.(0)] -> number ([stat]) *)
  | Value_of_value of (Value.t -> Value.t)  (** [is_list_empty] *)
  | Value_of_values of (Value.t -> Value.t -> Value.t)  (** [append] *)
  | Elem of (float array -> Value.t -> Value.t)
      (** a list and an index in [r.(0)] -> the element ([nth]); the
          compiled engine reads a [Value.Nums] in place instead, into
          [r.(0)], and calls this only on other values *)

(** [arity] is the argument count [fast] expects (-1 for [Generic]);
    [call] is the reference implementation the interpreter runs. *)
type entry = { arity : int; call : Value.t list -> Value.t; fast : fast }

(** {2 The catalogue} *)

(** Argument/return types of a signature. *)
type sigty =
  | Any
  | Numeric  (** int / long / float *)
  | Ty of Ast.typ

type func_sig = { args : sigty list; ret : sigty }

(** How a built-in runs.  Call resolution is the same everywhere: a
    host override ([Host.h_builtin]) first, then an Almanac function,
    then the catalogue. *)
type runs =
  | Pure of entry  (** host-independent; the symbolic passes fold it *)
  | Engine of (Host.host -> Value.t list -> Value.t)
      (** bound to the host's clock, resources or log by the engine *)
  | Soil  (** served by the deployment's host ([Seed_exec] on a soil) *)

type row = {
  name : string;
  signature : func_sig;
  runs : runs;
  stable : bool;
      (** an [Engine] or [Soil] result that is the same for every call in
          one handler firing: the symbolic passes keep it as a term, not
          an effect *)
  at_least : float option;
      (** a lower bound on a numeric result: the range fact both
          symbolic passes assume *)
}

(** Every built-in, in a fixed order. *)
val catalogue : row list

val find : string -> row option

(** The names of the [Soil] rows that are not stable: the effects every
    deployment serves.  {!Equiv} and {!Reach} assume them by default;
    tasks registering more extend the list. *)
val soil_effects : string list

(** Switch CPU seconds one [exec cmd] costs: [N] x 60 us for ["svr N"],
    1 ms for any other command.  The soil host charges it; {!Bounds}
    prices [exec] call sites with it. *)
val exec_cost : string -> float
