(** Static checking of Almanac programs.

    Responsibilities:
    - resolve single inheritance ([extends]): child states override parent
      states; variables can be neither overridden nor shadowed (§III-A a);
    - scope and type checking of all expressions and statements;
    - enforcement of the [util] syntactic restrictions (§III-A f): only
      if-then-else and return; only the operators and, or, ==, <=, >=, +,
      -, *, /; no calls except [min] and [max];
    - validation of [transit] targets and trigger references.

    A successful check returns the program with inheritance flattened —
    the form consumed by the analyses and the interpreter. *)

exception Error of string

exception Error_diag of Diagnostic.t
(** Structured variant of {!Error} with a stable [T0xx] code and the
    position of the failing declaration or statement; raised by the
    internals, converted by {!check}/{!check_diags}. *)

(** Argument/return types for builtin and auxiliary function signatures;
    the built-ins' own signatures are their {!Builtins.catalogue} rows. *)
type sigty = Builtins.sigty =
  | Any
  | Numeric  (** int / long / float *)
  | Ty of Ast.typ

type func_sig = Builtins.func_sig = { args : sigty list; ret : sigty }

(** [check ?extra program] type-checks and returns the program with
    machine inheritance resolved.  [extra] adds signatures for
    host-provided (OCaml) auxiliary functions. *)
val check :
  ?extra:(string * func_sig) list -> Ast.program -> Ast.program

(** Like {!check} but accumulating positioned diagnostics — one per
    failing function/machine — instead of stopping at the first. *)
val check_diags :
  ?extra:(string * func_sig) list ->
  Ast.program ->
  (Ast.program, Diagnostic.t list) result
