(** Runtime values of Almanac programs.  All numeric types (int, long,
    float) share one representation — monitoring arithmetic is counter math
    and the distinction only matters statically. *)

type t =
  | Unit
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Nums of floatarray
      (** a list of numbers held unboxed, built by the compiled engine
          ({!Compile}); the same value as the [List] of its [Num]s under
          {!equal}, {!pp} and every type check.  It stays inside the
          Almanac engines: {!plain} turns it back into a [List] wherever
          a value leaves them. *)
  | Packet of Farm_net.Flow.packet
  | Action of Farm_net.Tcam.action
  | FilterV of Farm_net.Filter.t
  | Stats of float array  (** polled counter values *)
  | Struct of string * (string * t) list
      (** [Resources], [Rule], [Poll], ... *)

(** [Bool b], one of two shared values (allocates nothing). *)
val of_bool : bool -> t

val truthy : t -> bool

(** Numeric view; raises [Type_error] otherwise. *)
val as_num : t -> float

val as_str : t -> string

(** A [List]'s elements, or a [Nums]' as [Num]s (allocated). *)
val as_list : t -> t list

(** The number of elements of a list value; O(1) on [Nums]. *)
val list_length : t -> int

(** [v] with every [Nums] in it, nested in lists and structs too, turned
    into its [List]; [v] itself (no allocation) when it holds none. *)
val plain : t -> t
val as_filter : t -> Farm_net.Filter.t
val as_action : t -> Farm_net.Tcam.action
val as_stats : t -> float array

exception Type_error of string

(** Structural equality (used by [==] in the language). *)
val equal : t -> t -> bool

(** Default value of a declared type (before initialization). *)
val default_of_typ : Ast.typ -> t

val field : t -> string -> t
(** Field access on packets, resources and other structs. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
