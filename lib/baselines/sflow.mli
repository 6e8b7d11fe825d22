(** sFlow model (RFC 3176): lightweight agents on every switch
    periodically read {e all} port counters and forward them, unfiltered,
    to the central collector which does every bit of analysis.

    Agent-side processing is minimal and constant (the paper's Fig. 5:
    sFlow's switch CPU load is flat in the number of flows) while network
    load to the collector grows linearly with port count and polling rate
    (Fig. 4). *)

type config = {
  poll_period : float;  (** counter export period (1 ms / 10 ms in Fig. 4) *)
  collector_latency : float;
}

val default_config : config

type t

val deploy :
  ?config:config ->
  Farm_sim.Engine.t ->
  Farm_net.Fabric.t ->
  hh_threshold:float ->
  t

val collector : t -> Collector.t

(** Stop the agents. *)
val shutdown : t -> unit
