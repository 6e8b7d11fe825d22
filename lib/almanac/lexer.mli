(** Hand-written lexer for Almanac.  Supports [//] line comments and
    [/* ... */] block comments. *)

exception Error of Ast.pos * string
(** Lexical error: where it is, and the message. *)

type located = { token : Token.t; line : int; col : int }

(** Tokenize a whole source string; the last element is [EOF]. *)
val tokenize : string -> located list
