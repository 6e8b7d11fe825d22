(** Pretty-printer from the Almanac AST back to concrete syntax.
    [Parser.program (program_to_string p)] yields a structurally equal AST
    (modulo redundant parentheses), which the test suite checks. *)

val expr_to_string : Ast.expr -> string
val program_to_string : Ast.program -> string
