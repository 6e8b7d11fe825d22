(** Ternary content-addressable memory (TCAM) model.

    The TCAM is split into a {e forwarding} region and a {e monitoring}
    region (the iSTAMP-inspired division of §II-B): monitoring rules
    installed by seeds can never evict or starve forwarding rules, so
    switching behaviour is unaffected by FARM operation.  Each rule carries
    byte/packet counters pollable over the PCIe bus. *)

type action =
  | Forward of int  (** egress port *)
  | Drop
  | Rate_limit of float  (** bytes per second cap *)
  | Set_qos of int  (** QoS class *)
  | Mirror  (** copy to the monitoring channel *)
  | Count  (** pure telemetry rule *)

type region = Forwarding | Monitoring

type rule = { pattern : Filter.t; action : action; priority : int }

(** A rule's hit counters.  All fields are floats, so the record is stored
    flat: adding to a counter neither boxes a float nor runs the write
    barrier.  The switch model's accounting is the only writer. *)
type counters = { mutable bytes : float; mutable packets : float }

type installed = private {
  id : int;
  region : region;
  rule : rule;
  counters : counters;
}

val bytes : installed -> float
val packets : installed -> float

type t

(** [create ~capacity ~monitoring_share] — [monitoring_share] in [0,1] is the
    fraction of entries reserved for the monitoring region (default 0.25). *)
val create : ?monitoring_share:float -> capacity:int -> unit -> t

val capacity : t -> int
val region_capacity : t -> region -> int
val region_used : t -> region -> int
val free : t -> region -> int

(** Moves whenever [add] or [remove] changes the rule set. *)
val version : t -> int

(** Install a rule; [Error `Full] if the region is out of entries. *)
val add : t -> region -> rule -> (installed, [ `Full ]) result

(** Remove all rules of the region whose pattern equals [pattern]; returns
    how many were removed. *)
val remove : t -> region -> pattern:Filter.t -> int

val find : t -> region -> pattern:Filter.t -> installed option

(** Highest-priority matching rule across both regions (forwarding wins
    ties, as the ASIC evaluates it first). *)
val lookup : t -> Flow.five_tuple -> installed option

(** The counters of every rule the tuple matches: the forwarding region,
    then the monitoring region, each in priority order.  The ASIC updates
    the counters of all matched entries, in its counter banks, for each
    packet of the flow. *)
val matching : t -> Flow.five_tuple -> counters array

val rules : t -> region -> installed list
