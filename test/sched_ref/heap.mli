(** Binary min-heap keyed by [(time, sequence)] — the event queue of the
    seed discrete-event simulator, kept for {!Heap_sched}.  The sequence
    number makes the dequeue order of simultaneous events deterministic
    (FIFO). *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val size : 'a t -> int

(** [push h ~time x] inserts [x] with priority [time]. *)
val push : 'a t -> time:float -> 'a -> unit

(** Pop the earliest element; [None] when empty. *)
val pop : 'a t -> (float * 'a) option

(** Earliest time without removing; [None] when empty. *)
val peek_time : 'a t -> float option

(** Earliest time without removing.  Raises [Invalid_argument] when
    empty — the allocation-free fast path of the simulator run loop. *)
val min_time_exn : 'a t -> float

(** Remove and return the earliest element's value (its time was already
    read via {!min_time_exn}).  Raises [Invalid_argument] when empty.
    Unlike {!pop}, allocates no option/tuple.

    Both pop paths clear the array slot they vacate — popped entries (and
    any closures they capture) become collectable immediately — and halve
    the backing array when occupancy falls below a quarter of capacity. *)
val pop_min_exn : 'a t -> 'a

(** Current backing-array capacity (for tests and instrumentation). *)
val capacity : 'a t -> int

val clear : 'a t -> unit
