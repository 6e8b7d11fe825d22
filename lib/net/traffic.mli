(** Synthetic workload generation: background data-center traffic with
    Zipf-distributed flow rates, heavy-hitter injection with controlled
    ratio and churn, and the attack patterns behind the 16 use cases of
    Table I. *)

type profile = {
  concurrent_flows : int;  (** target number of active background flows *)
  mean_rate : float;  (** bytes/s of a median flow *)
  zipf_s : float;  (** rate skew; 0 = uniform *)
  mean_lifetime : float;  (** seconds, exponential *)
}

val default_profile : profile

(** Keeps [profile.concurrent_flows] background flows active: each finished
    flow is replaced by a fresh one between random hosts. *)
val background :
  Farm_sim.Engine.t -> Fabric.t -> Farm_sim.Rng.t -> profile -> unit

(** Start a long-lived elephant flow of [rate] bytes/s at time [at] between
    random endpoints; the returned ref holds the flow id once started. *)
val heavy_hitter :
  Farm_sim.Engine.t ->
  Fabric.t ->
  Farm_sim.Rng.t ->
  at:float ->
  rate:float ->
  unit ->
  int option ref

(** {2 Attack generators (Table I workloads)}

    Each starts at [at] and lasts [duration] seconds. *)

(** Many SYN-only small flows from spoofed sources to one victim. *)
val syn_flood :
  Farm_sim.Engine.t -> Fabric.t -> Farm_sim.Rng.t ->
  at:float -> duration:float -> victim:Ipaddr.t -> rate_per_source:float ->
  sources:int -> unit

(** One scanner probing [ports] consecutive destination ports of a victim. *)
val port_scan :
  Farm_sim.Engine.t -> Fabric.t -> Farm_sim.Rng.t ->
  at:float -> duration:float -> victim:Ipaddr.t -> ports:int -> unit

(** One source contacting [fanout] distinct destinations. *)
val superspreader :
  Farm_sim.Engine.t -> Fabric.t -> Farm_sim.Rng.t ->
  at:float -> duration:float -> fanout:int -> unit

(** Large UDP responses from port 53 towards the victim (amplification). *)
val dns_reflection :
  Farm_sim.Engine.t -> Fabric.t -> Farm_sim.Rng.t ->
  at:float -> duration:float -> victim:Ipaddr.t -> reflectors:int ->
  rate_per_reflector:float -> unit

(** Repeated short TCP connections to port 22 of the victim. *)
val ssh_brute_force :
  Farm_sim.Engine.t -> Fabric.t -> Farm_sim.Rng.t ->
  at:float -> duration:float -> victim:Ipaddr.t -> attempts_per_sec:float ->
  unit

(** Many long-lived, very low-rate connections to port 80 of the victim. *)
val slowloris :
  Farm_sim.Engine.t -> Fabric.t -> Farm_sim.Rng.t ->
  at:float -> duration:float -> victim:Ipaddr.t -> connections:int -> unit
