(** Measurement primitives used by experiments: counters, gauges and
    histograms, plus a named-metric {!Registry} for publishing them under
    dotted paths. *)

module Counter : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val incr : t -> unit
  val value : t -> float
  val reset : t -> unit
end

module Gauge : sig
  type t

  val create : unit -> t
  val set : t -> float -> unit
  val add : t -> float -> unit
  val value : t -> float
  val reset : t -> unit
end

module Histogram : sig
  type t

  val create : unit -> t
  val record : t -> float -> unit
  val count : t -> int
  val mean : t -> float  (** summed in ascending order *)

  val max : t -> float
  val min : t -> float

  (** [percentile h p] with [p] in [0, 100]: linear interpolation
      between closest ranks ([rank = p/100 * (n-1)]); 0 on empty
      histograms.  Amortized: samples are re-sorted (in place, no
      allocation) only when new samples arrived since the last call. *)
  val percentile : t -> float -> float

  val reset : t -> unit
end

(** A named-metric registry.  Components register metrics under dotted
    paths (["soil.leaf0.polls.requested"], ["seeder.heartbeats.sent"])
    and the whole set can be snapshotted to JSON.  Each [Sim.Engine]
    owns one registry ([Engine.metrics]), keeping sweeps over multiple
    worlds isolated and deterministic. *)
module Registry : sig
  type metric =
    | Counter of Counter.t
    | Gauge of Gauge.t
    | Gauge_fn of (unit -> float)  (** callback gauge, sampled at snapshot time *)
    | Histogram of Histogram.t

  type t

  val create : unit -> t

  val counter : t -> string -> Counter.t
  (** Register-or-get: returns the existing counter when [name] is
      already bound to one.
      @raise Invalid_argument if [name] is bound to another kind. *)

  val gauge : t -> string -> Gauge.t

  val gauge_fn : t -> string -> (unit -> float) -> unit
  (** Register a callback gauge; re-registering the same name replaces
      the callback (newest owner wins). *)

  val histogram : t -> string -> Histogram.t
  val find : t -> string -> metric option

  val names : t -> string list
  (** Sorted. *)

  val value : t -> string -> float option
  (** Current scalar value (histograms report their mean). *)

  val to_json : t -> string
  (** Deterministic snapshot: names sorted, histograms summarized as
      count/mean/min/max/p50/p95/p99. *)
end
