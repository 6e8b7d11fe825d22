(** Model of one data-center switch: the packet-processing ASIC (port
    counters, TCAM, sampling) plus the capacities of its management system
    (CPU cores, RAM, PCIe polling bandwidth).

    Traffic is represented as {e active flows} with a byte rate; counters
    are exact integrals of those rates over time (synchronized lazily), so
    polls observe precisely what a hardware counter would show, without
    simulating individual packets.  Packet {e samples} for probing are drawn
    from active flows weighted by rate. *)

type caps = {
  vcpu : float;  (** management CPU cores *)
  ram_mb : float;
  tcam_entries : int;
  pcie_bps : float;  (** CPU<->ASIC polling channel, bits per second *)
  asic_bps : float;  (** ASIC switching capacity, bits per second *)
}

(** The paper's Accton AS5712 platform (§VI-A). *)
val accton_as5712 : caps  (** Atom C2538 quad core, 8 GB *)

type active_flow = {
  flow_id : int;
  tuple : Flow.five_tuple;
  base_rate : float;  (** offered bytes/s *)
  mutable rate : float;  (** effective bytes/s after TCAM actions *)
  flags : Flow.tcp_flags;
  payload : string;
  egress : int;  (** egress port on this switch *)
}

type t

val create : ?caps:caps -> id:int -> ports:int -> unit -> t
val id : t -> int
val caps : t -> caps
val tcam : t -> Tcam.t
val port_count : t -> int

(** {2 Flows} *)

val add_flow :
  t ->
  time:float ->
  flow_id:int ->
  tuple:Flow.five_tuple ->
  rate:float ->
  ?flags:Flow.tcp_flags ->
  ?payload:string ->
  egress:int ->
  unit ->
  unit

val remove_flow : t -> time:float -> flow_id:int -> unit

val active_flows : t -> active_flow list
(** Active flows sorted by [flow_id], the order in which every walk of
    the model visits them. *)

(** {2 TCAM rules} *)

(** Install a rule at [time] and re-apply TCAM actions (Drop, Rate_limit)
    to the active flows.  Counters settle at [time] first, so the rule
    counts traffic from its install on.  [Error `Full] if the region is
    out of entries. *)
val add_rule :
  t -> time:float -> Tcam.region -> Tcam.rule ->
  (Tcam.installed, [ `Full ]) result

(** Remove the region's rules whose pattern equals [pattern] at [time] and
    re-apply TCAM actions; returns how many were removed.  Counters settle
    at [time] first, so the removed rules keep their last interval. *)
val remove_rule : t -> time:float -> Tcam.region -> pattern:Filter.t -> int

(** Traffic-surge fault ([Fault.Traffic_surge]): multiply every flow's
    offered rate by [factor] from [time] on (counters up to [time] settle
    at the old rates first).  TCAM actions still apply on top — a
    rate-limit caps the surged rate.  Factor 1 restores the base rates and
    is bit-exact with the unfaulted model. *)
val set_surge : t -> time:float -> float -> unit

(** {2 Counters (polling targets)} *)

(** Cumulative bytes transmitted on a port. *)
val port_bytes : t -> time:float -> port:int -> float

(** Register interest in a subject so its counter accumulates; idempotent. *)
val watch_subject : t -> time:float -> Filter.subject -> unit

(** Cumulative bytes for a watched subject (0 if never watched). *)
val subject_bytes : t -> time:float -> Filter.subject -> float

(** Bytes of a subject as a hardware poll would return them: an array of
    per-port values for [All_ports], a single value otherwise. *)
val poll_subject : t -> time:float -> Filter.subject -> float array

(** {2 Sampling} *)

(** Draw a packet from active flows, probability proportional to rate;
    [None] when the switch is idle.  Rates must be non-negative.  A binary
    search over running rate sums cached in flow-id order, so a draw
    costs O(log flows) between re-ratings. *)
val sample_packet : t -> Farm_sim.Rng.t -> Flow.packet option

(** Total offered egress rate over all flows, bytes/s.  Cached between
    re-ratings; the refresh sums the rates in flow-id order, so the value
    is bit-identical to recomputing on every call. *)
val total_rate : t -> float
