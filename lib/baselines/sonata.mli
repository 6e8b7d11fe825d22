(** Sonata model: query-driven streaming telemetry.  The data plane
    reduces traffic to per-window records (the paper grants it a 75 %
    aggregation factor); a central Spark-Streaming-like job processes each
    window as a batch.  Detection can therefore only happen at
    {e batch boundaries} plus the batch processing delay — the source of
    Sonata's multi-second responsiveness in Tab. 4.  Per §VII it computes
    {e switch-local} heavy hitters only (no cross-switch merge). *)

val window : float
(** Streaming batch window (s). *)

val batch_process_time : float
(** Spark batch processing delay (s). *)

type t

val deploy :
  Farm_sim.Engine.t ->
  Farm_net.Fabric.t ->
  hh_threshold:float ->
  t

(** (time, switch, port) detections, oldest first. *)
val detections : t -> (float * int * int) list

val first_detection_after : t -> float -> (float * int * int) option

(** Bytes shipped to the streaming backend. *)
val rx_bytes : t -> float

val shutdown : t -> unit
