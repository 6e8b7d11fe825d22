(* Host-speed calibration of wall-clock measurements.

   The benchmark's host is a 2-core VM whose neighbours slow it by up to
   2x, in phases lasting seconds to minutes; raw wall-clock medians of one
   workload spread 10-30% across ten runs.  Every timed interval is
   therefore bracketed by a fixed reference kernel and divided by the
   kernel's slowdown against its duration on the idle host.  The result is
   seconds at the host's reference speed: the workload's slowdown cancels
   against the kernel's, while a change to FARM moves only the workload.

   The kernel uses no FARM code.  Half of it chases pointers through a
   cycle warmed into cache, which tracks contention for the core; half
   allocates and hashes small lists and strings from an emptied minor heap,
   which tracks contention for the caches and memory the simulator's
   allocation-heavy work depends on (a pointer chase alone corrected only
   half of a 2x slowdown of probe-mix).  The kernel's allocations and the
   minor collection it forces are counted apart so they can be left out of
   the workload's GC figures.  Raw seconds are kept alongside. *)

let slots = 1 lsl 14

(* one random cycle through all slots, so every load depends on the last *)
let chain =
  let perm = Array.init slots Fun.id in
  let rng = Farm.Sim.Rng.create 0x5eed in
  Farm.Sim.Rng.shuffle rng perm;
  let next = Array.make slots 0 in
  for i = 0 to slots - 1 do
    next.(perm.(i)) <- perm.((i + 1) mod slots)
  done;
  next

let weights = Array.init 4096 (fun i -> 1. +. (float_of_int i *. 1e-6))

let chase steps =
  let i = ref 0 and acc = ref 0. in
  for _ = 1 to steps do
    i := Array.unsafe_get chain !i;
    acc := !acc +. Array.unsafe_get weights (!i land 4095)
  done;
  ignore (Sys.opaque_identity !acc)

let allocate rounds =
  let tbl = Hashtbl.create 64 and acc = ref 0. in
  for i = 1 to rounds do
    List.iter
      (fun (f, s) ->
        acc := !acc +. f;
        Hashtbl.replace tbl (i land 255) s)
      (List.init 20 (fun j -> (float_of_int (i + j), string_of_int j)))
  done;
  ignore (Sys.opaque_identity (!acc +. float_of_int (Hashtbl.length tbl)))

(* The two halves and their durations on the idle host. *)
let chase_steps = 150_000
let nominal_chase_s = 0.8e-3
let allocate_rounds = 200
let nominal_allocate_s = 0.4e-3

(* Kernel totals so far: wall seconds, minor words allocated and minor
   collections forced. *)
let kernel_s = ref 0.
let kernel_words = ref 0.
let kernel_minors = ref 0

(* The slowdown the kernel read last. *)
let last_factor = ref 1.

(* Run the kernel once; its slowdown factor against the nominal. *)
let factor () =
  let start = Spans.now_ns () in
  chase (slots * 2);  (* warm the cycle into cache, untimed *)
  let t0 = Spans.now_ns () in
  chase chase_steps;
  let chase_s = Spans.seconds_since t0 in
  Gc.minor ();
  incr kernel_minors;
  let w0 = Gc.minor_words () in
  let t1 = Spans.now_ns () in
  allocate allocate_rounds;
  let allocate_s = Spans.seconds_since t1 in
  kernel_words := !kernel_words +. (Gc.minor_words () -. w0);
  kernel_s := !kernel_s +. Spans.seconds_since start;
  last_factor :=
    ((chase_s /. nominal_chase_s) +. (allocate_s /. nominal_allocate_s)) /. 2.;
  !last_factor

(* Seconds since [t0] minus kernel time since [k0]. *)
let since t0 k0 = Spans.seconds_since t0 -. (!kernel_s -. k0)

(* [measure f] = (f's result, its seconds at reference speed), with the
   kernel run just before and just after [f]. *)
let measure f =
  let h0 = factor () in
  let t0 = Spans.now_ns () and k0 = !kernel_s in
  let v = f () in
  let raw = since t0 k0 in
  let h1 = factor () in
  (v, raw /. ((h0 +. h1) /. 2.))

(* [time f] is [measure f] for an operation nested in a measured
   interval: scaled by the kernel's last reading, not bracketed itself (a
   kernel run right before a sub-millisecond operation would evict its
   working set and time it cache-cold). *)
let time f =
  let t0 = Spans.now_ns () and k0 = !kernel_s in
  let v = f () in
  (v, since t0 k0 /. !last_factor)

(* A stopwatch over a sequence of intervals split at [lap]: each lap is
   bracketed by kernel runs shared with its neighbours; kernel time,
   including that of measurements nested in a lap, is excluded from both
   totals. *)
type lap_timer = {
  mutable last : int64;
  mutable last_kernel : float;
  mutable h : float;
  mutable raw : float;
  mutable reference : float;
}

let start () =
  let h = factor () in
  { last = Spans.now_ns (); last_kernel = !kernel_s; h; raw = 0.; reference = 0. }

let restart t =
  t.last <- Spans.now_ns ();
  t.last_kernel <- !kernel_s

let lap t =
  let dt = since t.last t.last_kernel in
  let h = factor () in
  t.raw <- t.raw +. dt;
  t.reference <- t.reference +. (dt /. ((t.h +. h) /. 2.));
  t.h <- h;
  restart t

(* Run [f] between laps, outside both totals (trace draining). *)
let exclude t f =
  f ();
  restart t
