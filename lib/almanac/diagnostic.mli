(** Shared diagnostics for the Almanac static pipeline.

    Every pass — lexer, parser, type checker, lint, bounds inference,
    cross-task conflict detection — reports problems as positioned,
    code-carrying diagnostics rather than bare strings, so tooling
    ([farmc lint], the seeder's deploy-time verification, CI) can filter
    by severity and assert on stable codes.

    Code ranges (see DESIGN.md for the full table):
    - [P0xx] lexing / parsing
    - [T0xx] type checking and inheritance resolution
    - [L1xx] lint (machine-level semantic checks)
    - [B2xx] resource-bound inference
    - [C3xx] cross-task conflict detection *)

type severity = Error | Warning | Info

type t = {
  code : string;  (** stable machine-readable code, e.g. ["L101"] *)
  severity : severity;
  pos : Ast.pos;  (** {!Ast.no_pos} when no source location applies *)
  file : string option;  (** source file, when known *)
  message : string;
}

val make :
  ?file:string -> ?pos:Ast.pos -> severity -> code:string -> string -> t

val error : ?file:string -> ?pos:Ast.pos -> code:string -> string -> t
val warning : ?file:string -> ?pos:Ast.pos -> code:string -> string -> t

(** Formatted-message variant of {!error}. *)
val errorf :
  ?file:string ->
  ?pos:Ast.pos ->
  code:string ->
  ('a, unit, string, t) format4 ->
  'a

val warningf :
  ?file:string ->
  ?pos:Ast.pos ->
  code:string ->
  ('a, unit, string, t) format4 ->
  'a

(** Attach [file] to every diagnostic that lacks one. *)
val with_file : string -> t list -> t list

(** Sort by position (then code) — the order [farmc lint] prints in. *)
val sort : t list -> t list

val is_error : t -> bool
val has_errors : t list -> bool

(** ["file:line:col: severity[CODE]: message"]; the position is omitted
    when it is {!Ast.no_pos}, the file when unknown. *)
val to_string : t -> string

val pp : Format.formatter -> t -> unit

(** One diagnostic per line, sorted. *)
val print_all : out_channel -> t list -> unit

(** JSON array of [{file, line, col, code, severity, message}] objects. *)
val to_json : t list -> string
