(** Pure built-in functions of the Almanac runtime library, shared by the
    reference interpreter and the compiled engine. *)

(** Parse a protocol name ("tcp" / "udp" / "icmp"). *)
val proto_of_string : string -> Farm_net.Flow.proto

(** Evaluate a filter atom head applied to an already-evaluated argument
    (an [ANY] argument is a filter already and passes through). *)
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
  | Value_of_value_num of (float array -> Value.t -> Value.t)
      (** a value and a number in [r.(0)] -> value ([nth]) *)

(** [arity] is the argument count [fast] expects (-1 for [Generic]);
    [call] is the reference implementation the interpreter runs. *)
type entry = { arity : int; call : Value.t list -> Value.t; fast : fast }

(** Every host-independent built-in, built once per process. *)
val pure : (string, entry) Hashtbl.t

(** The built-ins bound to a host: [now], [log] and [res]. *)
val host_bound : (string * (Host.host -> Value.t list -> Value.t)) list

(** [table host] is {!pure} plus {!host_bound} applied to [host], in the
    list convention: the interpreter's name -> closure table. *)
val table : Host.host -> (string, Value.t list -> Value.t) Hashtbl.t
