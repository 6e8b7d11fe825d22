(* Discrete-event engine on a hierarchical timer wheel.

   The event queue is tuned for the periodic-timer-heavy workloads of the
   FARM simulations (polls, heartbeats, checkpoints): most events are
   re-arms of existing timers a few milliseconds in the future.  A single
   binary heap makes every such re-arm O(log n) in the *total* event count
   and allocates a fresh closure plus heap entry per tick.  Instead we
   keep:

   - an 11-level hashed timer wheel (32 slots per level, 0.1 ms ticks)
     of intrusively linked {e cells}, deep enough to hold every tick an
     event can have; inserting or re-arming a cell is O(1) amortized and
     allocation-free,
   - a sorted {e run}: when nothing of the current tick is left, the next
     level-0 slot is copied into a reusable array in insertion order and
     merge-sorted once on [(time, seq)] over a reusable scratch buffer,
     so each of its events is then dispatched from the front in O(1) (a
     broadcast's copies share one time and rising seqs, so a slot is
     often already sorted and costs one comparison per cell),
   - a small {e same-tick} cell-heap for cells armed into the tick being
     dispatched (zero-delay and sub-tick re-arms, cascades landing on the
     cursor); [run] takes whichever of the run's head and the heap's root
     is earlier, and
   - a freelist of one-shot cells so steady-state [schedule] calls do not
     allocate either.

   The run, its scratch buffer and the heap grow to their largest
   occupancy once and are never shrunk; every vacated slot is reset to
   the [nil] cell, so a dispatched cell (and the closure it captures) is
   not kept reachable by them.

   Dispatch order is exactly the lexicographic [(time, seq)] order of the
   seed binary-heap engine — [seq] is a global per-push counter — so all
   replay/determinism invariants (chaos I1-I5, byte-identical digests)
   hold bit-for-bit; [test/test_sim.ml] checks equivalence against a
   heap-backed reference on randomized schedules. *)

(* ------------------------------------------------------------------ *)
(* Geometry                                                            *)
(* ------------------------------------------------------------------ *)

let tick_bits = 5
let wheel_slots = 1 lsl tick_bits (* 32 *)

(* 0.1 ms ticks: finer than every poll/heartbeat period in the tree. *)
let tick_inv = 1e4

(* clamp for absurdly late events so [int_of_float] stays defined *)
let max_tick = 1 lsl 50

(* 11 levels span 2^55 ticks, so every tick up to [max_tick] has a slot
   and no event needs a queue beside the wheel. *)
let levels = 11

let tick_of_time time =
  let x = time *. tick_inv in
  if x >= 1.125e15 then max_tick else if x <= 0. then 0 else int_of_float x

(* index of the lowest set bit of a 32-bit word (De Bruijn multiply) *)
let debruijn = 0x077CB531

let tz_table =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8; 31; 27; 13;
     23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

let ctz w = tz_table.((((w land -w) * debruijn) land 0xFFFFFFFF) lsr 27)

(* ------------------------------------------------------------------ *)
(* Cells                                                               *)
(* ------------------------------------------------------------------ *)

type t = {
  mutable clock : float;
  root_rng : Rng.t;
  mutable dispatched : int;
  mutable pending : int;
  mutable next_seq : int;
  (* wheel *)
  mutable cur : int;                   (* tick the cursor stands on *)
  slots : cell array array;            (* levels x wheel_slots list heads *)
  bitmaps : int array;                 (* per-level slot occupancy *)
  mutable run : cell array;            (* drained slot, sorted *)
  mutable scratch : cell array;        (* merge buffer, all [nil] at rest *)
  mutable run_head : int;              (* next cell of the run *)
  mutable run_len : int;
  ready : cheap;                       (* armed into the current tick *)
  nil : cell;                          (* per-engine list terminator *)
  mutable free : cell;                 (* one-shot cell freelist *)
  mutable free_len : int;
  (* observability: a per-engine trace sink (None = tracing disabled,
     one branch per dispatch) and the named-metric registry components
     publish into.  Per-engine — never global — so parallel sweeps stay
     deterministic and isolated. *)
  mutable tracer : Trace.t option;
  metrics : Metrics.Registry.t;
}

(* A queued event.  Periodic timers *are* their cell: re-arming just
   refreshes [time]/[seq] and relinks, so steady-state ticking allocates
   nothing.  One-shots recycle through the freelist. *)
and cell = {
  mutable time : float;
  mutable seq : int;
  mutable cb : t -> unit;
  mutable period : float;              (* 0. = one-shot *)
  mutable cancelled : bool;
  mutable next : cell;                 (* intrusive slot list; nil-ended *)
}

(* Min-heap of cells on (time, seq).  Vacated slots are reset to [nil]
   so popped cells (and the closures they capture) never outlive their
   dispatch. *)
and cheap = { mutable a : cell array; mutable n : int; hnil : cell }

let cell_lt x y = x.time < y.time || (x.time = y.time && x.seq < y.seq)

let cheap_create nil = { a = [||]; n = 0; hnil = nil }

let cheap_push h c =
  if h.n = Array.length h.a then begin
    let cap = Stdlib.max 16 (2 * h.n) in
    let a = Array.make cap h.hnil in
    Array.blit h.a 0 a 0 h.n;
    h.a <- a
  end;
  h.a.(h.n) <- c;
  h.n <- h.n + 1;
  let i = ref (h.n - 1) in
  while
    !i > 0
    &&
    let p = (!i - 1) / 2 in
    cell_lt h.a.(!i) h.a.(p)
  do
    let p = (!i - 1) / 2 in
    let tmp = h.a.(!i) in
    h.a.(!i) <- h.a.(p);
    h.a.(p) <- tmp;
    i := p
  done

(* remove and return the root; the caller has already read it *)
let cheap_pop h =
  let top = h.a.(0) in
  h.n <- h.n - 1;
  if h.n > 0 then begin
    h.a.(0) <- h.a.(h.n);
    h.a.(h.n) <- h.hnil;
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let m = ref !i in
      if l < h.n && cell_lt h.a.(l) h.a.(!m) then m := l;
      if r < h.n && cell_lt h.a.(r) h.a.(!m) then m := r;
      if !m = !i then continue := false
      else begin
        let tmp = h.a.(!i) in
        h.a.(!i) <- h.a.(!m);
        h.a.(!m) <- tmp;
        i := !m
      end
    done
  end
  else h.a.(0) <- h.hnil;
  top

(* Sort [a.(lo) .. a.(hi-1)] on (time, seq), with [tmp] as the merge
   buffer, which only a range of more than [small_sort] cells touches.
   Halves already in order skip their merge, so a sorted stretch costs
   one comparison per cell. *)
let small_sort = 8

let rec merge_sort a tmp lo hi =
  if hi - lo <= small_sort then
    for i = lo + 1 to hi - 1 do
      let c = a.(i) in
      if cell_lt c a.(i - 1) then begin
        let j = ref i in
        while !j > lo && cell_lt c a.(!j - 1) do
          a.(!j) <- a.(!j - 1);
          decr j
        done;
        a.(!j) <- c
      end
    done
  else begin
    let mid = (lo + hi) lsr 1 in
    merge_sort a tmp lo mid;
    merge_sort a tmp mid hi;
    if cell_lt a.(mid) a.(mid - 1) then begin
      Array.blit a lo tmp lo (mid - lo);
      let i = ref lo and j = ref mid and k = ref lo in
      while !i < mid && !j < hi do
        if cell_lt a.(!j) tmp.(!i) then begin
          a.(!k) <- a.(!j);
          incr j
        end
        else begin
          a.(!k) <- tmp.(!i);
          incr i
        end;
        incr k
      done;
      Array.blit tmp !i a !k (mid - !i)
    end
  end

(* ------------------------------------------------------------------ *)
(* Engine construction                                                 *)
(* ------------------------------------------------------------------ *)

let noop (_ : t) = ()

(* the per-dispatch instant's trace keys *)
let c_engine = Trace.key "engine"
let n_dispatch = Trace.key "dispatch"
let k_seq = Trace.key "seq"

let create ?(seed = 42) () =
  let rec nil =
    { time = 0.; seq = 0; cb = noop; period = 0.; cancelled = true;
      next = nil }
  in
  { clock = 0.; root_rng = Rng.create seed; dispatched = 0; pending = 0;
    next_seq = 0; cur = 0;
    slots = Array.init levels (fun _ -> Array.make wheel_slots nil);
    bitmaps = Array.make levels 0;
    run = [||]; scratch = [||]; run_head = 0; run_len = 0;
    ready = cheap_create nil; nil;
    free = nil; free_len = 0;
    tracer = None;
    metrics = Metrics.Registry.create () }

let now t = t.clock
let rng t = t.root_rng
let dispatched t = t.dispatched
let pending t = t.pending
let tracer t = t.tracer

let set_tracer t tr = t.tracer <- tr
let metrics t = t.metrics

(* ------------------------------------------------------------------ *)
(* Insertion                                                           *)
(* ------------------------------------------------------------------ *)

(* Cells at or before the cursor tick join the same-tick heap (their slot
   has already been drained); later cells go to the lowest wheel level whose
   current window contains their tick, i.e. the smallest [k] with
   [tick lsr (5*(k+1)) = cur lsr (5*(k+1))], which the top level
   contains for every tick.  Occupied slots are therefore always
   strictly ahead of the cursor inside their window, which is what lets
   [refill] jump straight to the lowest set bitmap bit. *)
let insert t c tick =
  if tick <= t.cur then cheap_push t.ready c
  else begin
    let k = ref 0 in
    while
      let shift = tick_bits * (!k + 1) in
      tick lsr shift <> t.cur lsr shift
    do
      incr k
    done;
    let k = !k in
    let idx = (tick lsr (tick_bits * k)) land (wheel_slots - 1) in
    c.next <- t.slots.(k).(idx);
    t.slots.(k).(idx) <- c;
    t.bitmaps.(k) <- t.bitmaps.(k) lor (1 lsl idx)
  end

(* fresh (time, seq) for a cell, then queue it *)
let arm t c time =
  c.time <- time;
  c.seq <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  t.pending <- t.pending + 1;
  insert t c (tick_of_time time)

let max_free = 1024

let alloc_cell t =
  if t.free != t.nil then begin
    let c = t.free in
    t.free <- c.next;
    t.free_len <- t.free_len - 1;
    c.next <- t.nil;
    c
  end
  else
    { time = 0.; seq = 0; cb = noop; period = 0.; cancelled = false;
      next = t.nil }

let free_cell t c =
  if t.free_len < max_free then begin
    c.cb <- noop;                       (* drop the captured closure *)
    c.cancelled <- false;
    c.next <- t.free;
    t.free <- c;
    t.free_len <- t.free_len + 1
  end

(* ------------------------------------------------------------------ *)
(* Cursor advance                                                      *)
(* ------------------------------------------------------------------ *)

(* Copy a drained level-0 slot into the run and sort it.  The slot list
   is newest-first, so it is written back to front: the run starts in
   insertion order.  Called only when the run and the same-tick heap are
   empty. *)
let fill_run t head =
  let n = ref 0 and c = ref head in
  while !c != t.nil do
    incr n;
    c := (!c).next
  done;
  let n = !n in
  if n > Array.length t.run then begin
    let cap = Stdlib.max 16 (Stdlib.max n (2 * Array.length t.run)) in
    t.run <- Array.make cap t.nil;
    t.scratch <- Array.make cap t.nil
  end;
  let c = ref head in
  for i = n - 1 downto 0 do
    let x = !c in
    c := x.next;
    x.next <- t.nil;
    t.run.(i) <- x
  done;
  merge_sort t.run t.scratch 0 n;
  if n > small_sort then Array.fill t.scratch 0 n t.nil;
  t.run_head <- 0;
  t.run_len <- n

(* Make the run or the same-tick heap non-empty if any event exists:
   jump the cursor to the lowest occupied slot (bitmap scan), draining a
   level-0 slot into the run and cascading higher-level slots downwards
   (a cascaded cell that lands on the cursor tick joins the same-tick
   heap).  Each cell cascades at most [levels-1] times over its life, so
   the amortized cost per event is O(1). *)
let rec refill t =
  if t.run_head < t.run_len || t.ready.n > 0 then true
  else begin
    let k = ref 0 in
    while !k < levels && t.bitmaps.(!k) = 0 do
      incr k
    done;
    if !k < levels then begin
      let k = !k in
      let idx = ctz t.bitmaps.(k) in
      let shift = tick_bits * k in
      (* first tick of (level k, slot idx) in the cursor's window *)
      let slot_tick =
        (((t.cur lsr (shift + tick_bits)) lsl tick_bits) lor idx) lsl shift
      in
      t.cur <- slot_tick;
      let head = t.slots.(k).(idx) in
      t.slots.(k).(idx) <- t.nil;
      t.bitmaps.(k) <- t.bitmaps.(k) land lnot (1 lsl idx);
      if k = 0 then fill_run t head
      else begin
        let c = ref head in
        while !c != t.nil do
          let next = (!c).next in
          (!c).next <- t.nil;
          insert t !c (tick_of_time (!c).time);
          c := next
        done
      end;
      refill t
    end
    else false
  end

(* ------------------------------------------------------------------ *)
(* Public scheduling API                                               *)
(* ------------------------------------------------------------------ *)

type timer = cell

let schedule_at t ~time f =
  if time < t.clock -. 1e-12 then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: time %g is in the past (now %g)"
         time t.clock);
  let c = alloc_cell t in
  c.cb <- f;
  c.period <- 0.;
  arm t c time

let schedule t ~delay f =
  if delay < 0. then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~time:(t.clock +. delay) f

let every t ~period ?phase f =
  if period <= 0. then invalid_arg "Engine.every: period must be positive";
  let phase = Option.value phase ~default:period in
  if phase < 0. then invalid_arg "Engine.every: negative phase";
  let c =
    { time = 0.; seq = 0; cb = f; period; cancelled = false; next = t.nil }
  in
  arm t c (t.clock +. phase);
  c

(* The cell stays queued until its due time, but drops its closure now:
   [run] never calls a cancelled cell's callback, and a re-armed timer
   (a soil group, a resubscribed seed) must not keep what the old one
   captured alive until then. *)
let cancel timer =
  timer.cancelled <- true;
  timer.cb <- noop

let set_period timer p =
  if p <= 0. then invalid_arg "Engine.set_period: period must be positive";
  timer.period <- p

(* ------------------------------------------------------------------ *)
(* Run loop                                                            *)
(* ------------------------------------------------------------------ *)

(* Peek-then-commit: the next event is the run's head or the same-tick
   heap's root, whichever is earlier on (time, seq); it is removed only
   after the [until] check. *)
let run ?until t =
  let continue = ref true in
  while !continue do
    if not (refill t) then continue := false
    else begin
      let from_run =
        t.run_head < t.run_len
        && (t.ready.n = 0 || cell_lt t.run.(t.run_head) t.ready.a.(0))
      in
      let c = if from_run then t.run.(t.run_head) else t.ready.a.(0) in
      match until with
      | Some u when c.time > u ->
          t.clock <- u;
          continue := false
      | Some _ | None ->
          if from_run then begin
            t.run.(t.run_head) <- t.nil;
            t.run_head <- t.run_head + 1
          end
          else ignore (cheap_pop t.ready);
          t.clock <- c.time;
          t.dispatched <- t.dispatched + 1;
          t.pending <- t.pending - 1;
          if c.cancelled then begin
            if c.period = 0. then free_cell t c
          end
          else begin
            (match t.tracer with
            | None -> ()
            | Some tr ->
                Trace.instant tr ~ts:c.time ~cat:c_engine
                  ~name:(Trace.name tr n_dispatch) ~tid:0;
                Trace.arg_i tr k_seq c.seq);
            c.cb t;
            if c.period > 0. then begin
              if not c.cancelled then arm t c (c.time +. c.period)
            end
            else free_cell t c
          end
    end
  done;
  match until with
  | Some u when t.clock < u -> t.clock <- u
  | Some _ | None -> ()
