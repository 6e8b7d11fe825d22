(** HyperLogLog distinct-count estimator: cardinality of a key stream in
    O(2{^precision}) bytes with ~1.04/sqrt(m) relative error.  Backs
    constant-memory superspreader/DDoS source counting in sketch-based
    seeds. *)

type t

(** [create ~precision ()] uses [2^precision] registers; precision in
    [4, 16]. *)
val create : ?seed:int -> precision:int -> unit -> t

val registers : t -> int

val add : t -> string -> unit

(** Estimated number of distinct keys added. *)
val count : t -> float

(** Merge [other] into [t] (same precision required). *)
val merge : t -> t -> unit

val reset : t -> unit
