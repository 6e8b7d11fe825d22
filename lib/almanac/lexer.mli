(** Hand-written lexer for Almanac.  Supports [//] line comments and
    [/* ... */] block comments. *)

exception Error of Ast.pos * string
(** Lexical error: where it is, and the message. *)

type located = { token : Token.t; line : int; col : int }

(** The tokens are [toks.(0)] to [toks.(len - 1)]; the last is [EOF].
    The array may be longer than [len]. *)
type t = { toks : located array; len : int }

(** Tokenize a whole source string. *)
val tokenize : string -> t
