(** Runtime values of Almanac programs.  All numeric types (int, long,
    float) share one representation — monitoring arithmetic is counter math
    and the distinction only matters statically. *)

type t =
  | Unit
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
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
val as_list : t -> t list
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
