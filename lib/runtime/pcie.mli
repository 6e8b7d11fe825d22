(** The PCIe bus between a switch's ASIC and its management CPU (§II-B b),
    the polling bottleneck of Fig. 8: every counter poll and packet sample
    of the soil crosses it.  Transfers wait in one priority queue (FIFO
    within a priority) and hold the bus one at a time, each for its bytes
    at the bandwidth in force when it starts.  An arrival is refused when
    it would start more than [wait_cap] after now, behind a backlog
    summed at each arrival's bandwidth.  An arrival to [max_queue]
    waiting transfers sheds one request, its own or a queued one: the
    lowest priority, then the one whose owner holds the most queued
    requests (most over its fair share), then the newest.  The owners
    keep their queued counts in their own records. *)

module Engine := Farm_sim.Engine
module Counter := Farm_sim.Metrics.Counter

(** Request-granularity accounting.  Offered = completed + shed + pending
    at every instant. *)
type stats = {
  o_offered : int;
  o_completed : int;
  o_shed : int;
  o_pending : int;  (** queued + in flight on the bus *)
  o_queue_peak : int;  (** deepest queued + in-flight ever observed *)
}

(** A bus whose transfers are owned by ['o]s, the soil's seed records. *)
type 'o t

(** A bus at the switch's [pcie_bps].  It adds each shed to [shed] and
    each completed transfer's bytes to [bytes], and keeps each owner's
    count of queued requests, its fair share, through [queued] and
    [set_queued]. *)
val create :
  Engine.t -> Farm_net.Switch_model.t -> max_queue:int -> wait_cap:float ->
  shed:Counter.t -> bytes:Counter.t -> queued:('o -> int) ->
  set_queued:('o -> int -> unit) -> 'o t

(** [f owners] runs at once for every request shed, the arriving one
    included. *)
val on_shed : 'o t -> ('o list -> unit) -> unit

(** [offer t ~bytes ~prio ~owners k] queues a transfer owned by [owners]
    (one entry per poll) and calls [k] when it completes; [false] when it
    is refused on arrival, over the wait cap or shed at once. *)
val offer :
  'o t -> bytes:float -> prio:int -> owners:'o list -> (Engine.t -> unit) ->
  bool

(** PCIe slowdown: the bandwidth becomes [pcie_bps / f]. *)
val set_factor : 'o t -> float -> unit

val factor : 'o t -> float

(** Seconds of transfers put on the bus so far. *)
val busy_seconds : 'o t -> float

val stats : 'o t -> stats
