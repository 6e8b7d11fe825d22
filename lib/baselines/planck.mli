(** Planck model: millisecond-scale monitoring through oversubscribed port
    mirroring.  Each switch mirrors sampled packets at a high rate to a
    dedicated collector that estimates per-port rates over a very short
    sliding window — specialized hardware support buys millisecond
    detection (Tab. 4: ~4 ms at 10 Gb/s) at the price of generality. *)

type t

val deploy :
  Farm_sim.Engine.t ->
  Farm_net.Fabric.t ->
  hh_threshold:float ->
  t

val detections : t -> (float * int * int) list
val first_detection_after : t -> float -> (float * int * int) option

(** Mirrored bytes shipped to the Planck collector. *)
val rx_bytes : t -> float

val shutdown : t -> unit
