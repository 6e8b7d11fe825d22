(** Helios model: the topology manager of a hybrid electrical/optical DC
    polls link utilization of every switch in a fixed control loop to
    decide circuit reconfiguration.  Its responsiveness is bounded by the
    loop period (Tab. 4: 77 ms). *)

val loop_period : float
(** The central control loop (77 ms). *)

type t

val deploy :
  Farm_sim.Engine.t ->
  Farm_net.Fabric.t ->
  hh_threshold:float ->
  t

val detections : t -> (float * int * int) list
val first_detection_after : t -> float -> (float * int * int) option
val rx_bytes : t -> float
val shutdown : t -> unit
