(** Seed-state checkpoints: the wire format of the self-healing layer.

    A running seed's machine state — the [(vars, state)] pair produced by
    [Seed_exec.snapshot] — is serialized to XML (the same interchange
    family as the §V-A d seed format) and shipped to the seeder over the
    control channel.  Checkpoints are {e deltas}: only variables that
    changed since the previously shipped checkpoint are included (plus the
    names of variables that disappeared), so steady-state seeds cost a few
    bytes per interval.  Every [full_every]-th checkpoint is a full
    snapshot, which lets the seeder resynchronize after a lost delta
    (deltas merge only when contiguous).

    The codec is a complete structural serialization of {!Value.t}:
    [decode (encode c) = c] for every checkpoint, including packets,
    filters, TCAM actions and nested structs.

    One writer defines the wire form.  It walks a checkpoint once and
    emits its bytes either into a buffer ({!encode}) or into a byte
    count ({!wire_bytes}), so the price the self-healing layer charges a
    checkpoint (control-channel time and switch CPU) is the exact length
    of its encoding, computed without building an XML tree, printing a
    float or allocating a string (but the text of an IP address held in a
    packet or filter).  {!decode} parses with {!Farm_almanac.Xml}. *)

module Value := Farm_almanac.Value

exception Decode_error of string

(** {2 Checkpoints} *)

type t = {
  ck_seed : int;  (** seed id *)
  ck_epoch : int;  (** instance epoch the state belongs to *)
  ck_seq : int;  (** per-epoch checkpoint sequence number, from 0 *)
  ck_full : bool;  (** full snapshot (vs delta against [ck_seq - 1]) *)
  ck_vars : (string * Value.t) list;  (** changed/new bindings *)
  ck_removed : string list;  (** bindings gone since the previous one *)
  ck_state : string;  (** current machine state *)
}

val encode : t -> string

(** Raises {!Decode_error} (or [Xml.Parse_error]) on malformed input. *)
val decode : string -> t

(** Bytes the encoded checkpoint occupies on the control channel:
    [String.length (encode c)], counted by the same writer without
    producing the string. *)
val wire_bytes : t -> float

(** [delta ~base vars] = (changed-or-new bindings, removed names) of
    [vars] relative to [base].  Binding order follows [vars]/[base]. *)
val delta :
  base:(string * Value.t) list ->
  (string * Value.t) list ->
  (string * Value.t) list * string list

(** [apply ~base ck] merges a delta (or replaces, for a full checkpoint)
    into the accumulated variable map. *)
val apply :
  base:(string * Value.t) list -> t -> (string * Value.t) list
