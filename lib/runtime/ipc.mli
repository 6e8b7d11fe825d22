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
