(** The fabric ties a {!Topology} to per-switch {!Switch_model}s and manages
    flow lifecycles end to end: starting a flow routes it, then accounts its
    rate on the egress port of every switch along the path. *)

type t

val create : ?caps:Switch_model.caps -> Topology.t -> t
val topology : t -> Topology.t

(** The model of switch [id]; raises [Invalid_argument] for non-switches. *)
val switch : t -> int -> Switch_model.t

val switch_models : t -> Switch_model.t list

(** Start a flow for [tuple] at [rate] bytes/s.  The path defaults to ECMP
    routing between the hosts owning the tuple's addresses; returns [None]
    when no route exists.  Returns the flow id. *)
val start_flow :
  t ->
  time:float ->
  tuple:Flow.five_tuple ->
  rate:float ->
  ?flags:Flow.tcp_flags ->
  ?payload:string ->
  unit ->
  int option

val stop_flow : t -> time:float -> int -> unit

(** Path of an active flow. *)
val flow_path : t -> int -> Routing.path option

val active_flow_count : t -> int

(** {2 Link faults}

    Taking a link down reroutes every active flow whose path crosses it
    (ECMP over the surviving links); flows left with no route are
    dropped.  Bringing a link back re-runs ECMP for all flows so load
    spreads back over it.  Flow processing order is by flow id, so the
    outcome is deterministic. *)

val set_link_state : t -> time:float -> int -> int -> up:bool -> unit

(** Cumulative counts of flows rerouted / dropped by link faults. *)
val rerouted_flows : t -> int

val dropped_flows : t -> int

(** Pick a uniformly random address inside some host's prefix. *)
val random_host_addr : t -> Farm_sim.Rng.t -> Ipaddr.t
