(** The seed interchange format of §V-A d: Almanac programs compiled by
    the seeder to XML and decompiled back into executable machines by each
    switch's soil.  The encoding is a complete structural serialization of
    the AST, so [load (compile p) = p]. *)

(** A program as interchange XML text. *)
val compile : Ast.program -> string

exception Decode_error of string

(** Raises {!Decode_error} or {!Xml.Parse_error} on malformed input. *)
val load : string -> Ast.program
