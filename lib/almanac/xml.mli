(** A small self-contained XML layer (writer + parser) used for the seed
    interchange format of §V-A d: the seeder compiles Almanac machines to
    XML "for interoperability and portability across OSs", and each
    switch's soil turns the XML back into executable seeds. *)

type t = Element of string * (string * string) list * t list | Text of string

val element : ?attrs:(string * string) list -> string -> t list -> t
val text : string -> t

(** Name of an element ([Invalid_argument] on [Text]). *)
val name : t -> string

val attr : t -> string -> string option

(** Attribute that must exist. *)
val attr_exn : t -> string -> string

val children : t -> t list

(** Child elements with the given name. *)
val select : t -> string -> t list

(** First child element with the name, if any. *)
val first : t -> string -> t option

(** Concatenated text content of a node. *)
val text_content : t -> string

(** Serialize with proper escaping; [indent] pretty-prints (default). *)
val to_string : ?indent:bool -> t -> string

(** [add_escaped buf s] appends [s] with each of the five markup
    characters (less-than, greater-than, ampersand, both quotes) replaced
    by its entity, as {!to_string} writes text and attribute values. *)
val add_escaped : Buffer.t -> string -> unit

(** [String.length] of what {!add_escaped} appends, without building it. *)
val escaped_length : string -> int

exception Parse_error of string

(** Parse one document element (prolog allowed, comments skipped). *)
val parse : string -> t
