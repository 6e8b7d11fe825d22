(** Domain-parallel runner for independent simulation scenarios.

    Fans scenario indices across an OCaml 5 domain pool with an atomic
    take-a-number queue.  Results are keyed by scenario index, so a sweep
    is deterministic whenever each scenario function is — parallel and
    sequential executions produce byte-identical result arrays (asserted
    by [test/test_sweep.ml] and the bench_smoke harness).

    Scenario functions must be self-contained: build the engine, fabric
    and RNG inside the call (derive per-scenario seeds with {!Rng.stream}
    or {!Rng.derive_seed}) and share no mutable state across indices.

    {b Multicore discipline.}  OCaml 5 minor collections are
    stop-the-world across every running domain, so spawning more domains
    than the machine has cores makes sweeps dramatically {e slower} (each
    minor GC must rendezvous with descheduled domains).  [run] therefore
    clamps the domain count to [Domain.recommended_domain_count] by
    default, and gives each worker an enlarged per-domain minor heap so
    allocation-heavy scenarios trip fewer barriers.  [~clamp:false]
    lifts the clamp; worker GC tuning never leaks into the calling
    domain. *)

(** Domain count used when [?domains] is omitted:
    [FARM_SWEEP_DOMAINS] if set, else [Domain.recommended_domain_count].
    The value is still subject to [run]'s hardware clamp. *)
val default_domains : unit -> int

(** [effective_domains ?domains ?clamp n] is the domain count [run] will
    actually use for [n] scenarios: the requested count (defaulting as
    above), clamped to [Domain.recommended_domain_count] unless
    [~clamp:false], and never more than [n]. *)
val effective_domains : ?domains:int -> ?clamp:bool -> int -> int

(** [run ~domains n f] evaluates [f 0 .. f (n-1)] on
    [effective_domains ?domains ?clamp n] domains (the caller's domain is
    one of them) and returns the results indexed by scenario.  An
    effective count [<= 1] degrades to sequential [Array.init].

    [~clamp:false] spawns exactly the requested domains even beyond the
    core count (determinism tests).  If a scenario raises, the sweep stops
    taking new work, every domain is joined, and the first exception
    re-raises here. *)
val run : ?domains:int -> ?clamp:bool -> int -> (int -> 'a) -> 'a array

(** [map ~domains a f] = [run ~domains (Array.length a) (fun i -> f a.(i))]. *)
val map : ?domains:int -> ?clamp:bool -> 'a array -> ('a -> 'b) -> 'b array
