(** The semantic rules of Almanac that every engine and analysis shares.

    {!Interp}, the compiled engine ({!Compile}/{!Exec}), {!Symexec} and
    its clients {!Equiv} and {!Reach}, and {!Lint} take value operators
    and event dispatch from here; the index rules of [nth], [set_nth]
    and [stat] live in {!Builtins}.  The compiled engine keeps unboxed
    fast paths for numbers and falls back to these functions for every
    other operand, so a rule changed here changes everywhere at once. *)

(** {2 Value operators} *)

(** [+ - * /] on values: two strings concatenate under [+]; otherwise
    both operands convert to numbers (left first) and [/] by zero
    fails. *)
val arith : Ast.binop -> Value.t -> Value.t -> Value.t

(** [<= >= < >] on numbers.  Callers convert each operand with
    [Value.as_num] as soon as it is evaluated. *)
val order : Ast.binop -> float -> float -> bool

(** [not] on a bool or a filter. *)
val not_ : Value.t -> Value.t

(** Unary minus. *)
val neg : Value.t -> Value.t

(** [and] / [or] are split so that an engine can skip its right
    operand.  [logic_left op va] is [Some r] when the left operand
    decides ([false and _], [true or _]) and [None] when the right
    operand is needed; it fails on a left operand that is neither a
    bool nor a filter. *)
val logic_left : Ast.binop -> Value.t -> Value.t option

(** The result of [va op vb] when [logic_left op va = None]: a filter
    combination, or the right operand, which must be a bool. *)
val logic_right : Ast.binop -> Value.t -> Value.t -> Value.t

(** The right operand of [and] / [or] after a bool left operand. *)
val logic_bool : Ast.binop -> Value.t -> bool

(** Every binary operator on two evaluated operands (no short circuit;
    for evaluating symbolic terms). *)
val binop : Ast.binop -> Value.t -> Value.t -> Value.t

val unop : Ast.unop -> Value.t -> Value.t

(** {2 Event dispatch} *)

(** What a dispatch runs for: a trigger other than [recv] (a [recv] arm
    dispatches by {!recv_arms}). *)
type key = Enter | Exit | Realloc | Var of string  (** trigger variable *)

(** The key of a trigger; [None] for a [recv] arm. *)
val trigger_key : Ast.trigger -> key option

(** ["enter"], ["exit"], ["realloc"] or ["var:y"]. *)
val key_name : key -> string

(** The events a state runs for a key: its own events with that key,
    or, when it has none, the machine-level ones (state overrides
    machine). *)
val events_for : Ast.machine -> Ast.state_decl -> key -> Ast.event list

(** The [recv] arms of a state in the order a delivery scans them:
    state events, then machine events.  A message runs the first arm
    that {!accepts} it, and only that one. *)
val recv_arms : Ast.machine -> Ast.state_decl -> (Ast.typ * Ast.dest * Ast.event) list

(** Whether a [recv] arm of type [ty] from [dest] accepts [v] sent by
    [from]: the sender matches and [v] is of the type's kind (int, long
    and float all accept a number; [resources] accepts nothing). *)
val accepts : Ast.typ -> Ast.dest -> Host.source -> Value.t -> bool

(** The arms of {!recv_arms} that some message can run: an arm is
    shadowed, and never runs, when an earlier arm has the same sender
    and accepts the same values. *)
val live_recv_arms :
  Ast.machine -> Ast.state_decl -> (Ast.typ * Ast.dest * Ast.event) list

(** ["harvester"] or the machine name. *)
val source_name : Ast.dest -> string

(** {2 Transits} *)

(** The state a [transit] names: a bare state name or a string literal;
    [None] for any other expression. *)
val transit_target : Ast.expr -> string option

(** Every [transit] in a statement list, nested ones included, in
    program order: its site and {!transit_target}. *)
val body_transits : Ast.stmt list -> (Ast.pos * string option) list
