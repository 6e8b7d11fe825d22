(** Central collector shared by the collection-centric baselines: receives
    reports from switch agents over the network, keeps per-(switch, port)
    rate estimates and fires heavy-hitter detections.

    This is the "logically centralized collector" whose congestion and
    compute bottleneck motivates FARM (§I). *)

type t

(** [create engine ~latency ~hh_threshold] — [latency] is the
    agent→collector one-way delay, [hh_threshold] the heavy-hitter rate in
    bytes/s. *)
val create :
  Farm_sim.Engine.t ->
  latency:float ->
  hh_threshold:float ->
  t

(** An agent pushes a counter report: cumulative [bytes] of ([switch],
    [port]) read at [read_time].  The collector receives it after the
    network latency, estimates the port rate from consecutive reports and
    records a detection when it crosses the threshold. *)
val push_counters :
  t -> switch:int -> port:int -> bytes:float -> read_time:float -> unit

(** Batched variant: one network event delivering every port counter of a
    switch ([readings.(port) = bytes]). *)
val push_counters_batch :
  t -> switch:int -> read_time:float -> float array -> unit

(** Raw sample/record push that only counts network/CPU load (streams that
    the collector forwards or aggregates without rate tracking). *)
val push_opaque : t -> bytes:float -> records:int -> unit

(** Detections as (detection time, switch, port), oldest first.  A given
    (switch, port) is reported once. *)
val detections : t -> (float * int * int) list

val first_detection_after : t -> float -> (float * int * int) option

(** Total application bytes received (network load towards the collector). *)
val rx_bytes : t -> float

val rx_records : t -> int

val reset_stats : t -> unit
