(** Soil ↔ seed communication models (§V-A, Fig. 10).

    FARM supports two execution models (seeds as {e threads} of the soil
    process or as separate {e processes}) and two transports (gRPC or a
    shared-memory ring buffer).  gRPC's per-message cost grows with the
    number of co-located seeds (connection multiplexing, serialization,
    scheduler pressure), which made it the latency bottleneck and motivated
    the shared-buffer scheme. *)

type scheme = Grpc | Shared_buffer

type exec_model = Threads | Processes

(** One-way soil→seed message latency in seconds, given the number of
    seeds currently deployed on the switch. *)
val latency : scheme -> exec_model -> seeds:int -> float

(** CPU seconds consumed per message by the transport. *)
val cpu_cost : scheme -> exec_model -> float

(** Receiver-side message deduplication.

    The control plane delivers {e at least once}: lost messages are
    retransmitted by the seeder and [Fault]'s ctrl-dup fault duplicates
    in-flight copies.  Receivers (seed executors, harvesters) therefore
    dedup by message id, turning at-least-once transport into exactly-once
    handling — control messages such as deploy/poll/retune are idempotent
    at the receiver. *)
module Dedup : sig
  type t

  val create : unit -> t

  (** [register t id] records the id; [true] iff it was not seen before
      (i.e. the message should be processed). *)
  val register : t -> int -> bool

  (** Distinct ids accepted so far. *)
  val accepted : t -> int

  (** Duplicate deliveries suppressed so far. *)
  val duplicates : t -> int
end
