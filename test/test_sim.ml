(* Tests for the discrete-event simulation core: RNG determinism and
   distributions, heap ordering, engine scheduling semantics, metrics. *)

open Farm_sim
open Farm_sched_ref

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let c = Rng.split a in
  (* after splitting, drawing from one stream does not affect the other's
     reproducibility *)
  let a' = Rng.create 7 in
  let c' = Rng.split a' in
  let _ = Rng.int a 10 in
  Alcotest.(check int) "split streams deterministic" (Rng.int c 1000)
    (Rng.int c' 1000)

let test_rng_bounds () =
  let r = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "int in range" true (v >= 0 && v < 17);
    let f = Rng.float r in
    Alcotest.(check bool) "float in [0,1)" true (f >= 0. && f < 1.);
    let u = Rng.uniform r 2. 5. in
    Alcotest.(check bool) "uniform in range" true (u >= 2. && u < 5.)
  done

let test_rng_exponential_mean () =
  let r = Rng.create 11 in
  let n = 20_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential r 2.
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "exponential mean near 0.5" true
    (Float.abs (mean -. 0.5) < 0.02)

let test_rng_zipf_skew () =
  let r = Rng.create 5 in
  let n = 1000 in
  let counts = Array.make n 0 in
  let draws = 50_000 in
  for _ = 1 to draws do
    let k = Rng.zipf r ~n ~s:1. in
    Alcotest.(check bool) "zipf in range" true (k >= 0 && k < n);
    counts.(k) <- counts.(k) + 1
  done;
  (* rank 0 must be far more popular than rank n/2 *)
  Alcotest.(check bool) "zipf skewed" true (counts.(0) > 10 * counts.(n / 2))

let test_rng_shuffle_permutes () =
  let r = Rng.create 9 in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

(* ------------------------------------------------------------------ *)
(* Heap                                                                *)
(* ------------------------------------------------------------------ *)

let test_heap_order () =
  let h = Heap.create () in
  List.iter (fun t -> Heap.push h ~time:t t) [ 5.; 1.; 3.; 2.; 4. ];
  let out = ref [] in
  let rec drain () =
    match Heap.pop h with
    | Some (_, v) ->
        out := v :: !out;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list (float 0.))) "sorted" [ 1.; 2.; 3.; 4.; 5. ]
    (List.rev !out)

let test_heap_fifo_ties () =
  let h = Heap.create () in
  List.iter (fun x -> Heap.push h ~time:1. x) [ "a"; "b"; "c" ];
  let next () = match Heap.pop h with Some (_, v) -> v | None -> "?" in
  let x1 = next () in
  let x2 = next () in
  let x3 = next () in
  Alcotest.(check (list string)) "fifo on equal times" [ "a"; "b"; "c" ]
    [ x1; x2; x3 ]

let test_heap_pop_min_exn () =
  let h = Heap.create () in
  Alcotest.check_raises "min_time_exn on empty"
    (Invalid_argument "Heap.min_time_exn: empty heap") (fun () ->
      ignore (Heap.min_time_exn h));
  Alcotest.check_raises "pop_min_exn on empty"
    (Invalid_argument "Heap.pop_min_exn: empty heap") (fun () ->
      ignore (Heap.pop_min_exn h : int));
  List.iter (fun t -> Heap.push h ~time:t (int_of_float t)) [ 3.; 1.; 2. ];
  let out = ref [] in
  while not (Heap.is_empty h) do
    let time = Heap.min_time_exn h in
    let v = Heap.pop_min_exn h in
    out := (time, v) :: !out
  done;
  Alcotest.(check (list (pair (float 0.) int)))
    "exn path drains in order"
    [ (1., 1); (2., 2); (3., 3) ]
    (List.rev !out)

let prop_heap_exn_matches_pop =
  QCheck2.Test.make ~name:"pop_min_exn agrees with pop" ~count:200
    QCheck2.Gen.(list (float_range 0. 100.))
    (fun times ->
      let h1 = Heap.create () and h2 = Heap.create () in
      List.iteri (fun i t -> Heap.push h1 ~time:t i) times;
      List.iteri (fun i t -> Heap.push h2 ~time:t i) times;
      let rec check () =
        match Heap.pop h1 with
        | None -> Heap.is_empty h2
        | Some (t, v) ->
            (not (Heap.is_empty h2))
            && Heap.min_time_exn h2 = t
            && Heap.pop_min_exn h2 = v
            && check ()
      in
      check ())

let prop_heap_sorted =
  QCheck2.Test.make ~name:"heap pops in nondecreasing time order" ~count:200
    QCheck2.Gen.(list (float_range 0. 100.))
    (fun times ->
      let h = Heap.create () in
      List.iter (fun t -> Heap.push h ~time:t ()) times;
      let rec check last =
        match Heap.pop h with
        | None -> true
        | Some (t, ()) -> t >= last && check t
      in
      check neg_infinity)

(* Model-based: arbitrary push/pop interleavings against a sorted-list
   model.  Times are quantized to quarters so equal-time ties are frequent
   and the FIFO tie-break is genuinely exercised. *)
let prop_heap_model =
  QCheck2.Test.make ~name:"heap matches sorted-list model (FIFO ties)"
    ~count:300
    QCheck2.Gen.(
      list
        (oneof
           [ map (fun i -> `Push (float_of_int i /. 4.)) (int_bound 40);
             return `Pop ]))
    (fun ops ->
      let h = Heap.create () in
      (* model: (time, seq) pairs kept time-sorted, insertion-stable *)
      let model = ref [] in
      let seq = ref 0 in
      List.for_all
        (fun op ->
          match op with
          | `Push time ->
              Heap.push h ~time !seq;
              model :=
                List.stable_sort
                  (fun (t1, _) (t2, _) -> Float.compare t1 t2)
                  (!model @ [ (time, !seq) ]);
              incr seq;
              Heap.size h = List.length !model
          | `Pop -> (
              match !model with
              | [] -> Heap.is_empty h && Heap.pop h = None
              | (time, v) :: rest ->
                  (not (Heap.is_empty h))
                  && Heap.min_time_exn h = time
                  && Heap.pop_min_exn h = v
                  &&
                  (model := rest;
                   true)))
        ops)

let test_heap_pop_releases () =
  (* the vacated slot must not pin the popped value: push two closures,
     pop one, and the popped one has to be collectable immediately *)
  let h = Heap.create () in
  let w = Weak.create 1 in
  let fill () =
    let v = ref 12345 in
    Weak.set w 0 (Some v);
    Heap.push h ~time:1. v;
    Heap.push h ~time:2. (ref 0)
  in
  fill ();
  ignore (Heap.pop h);
  Gc.full_major ();
  Alcotest.(check bool) "popped entry collected" true (Weak.get w 0 = None);
  (* draining to empty drops the backing array entirely *)
  ignore (Heap.pop h);
  Alcotest.(check int) "empty heap holds no array" 0 (Heap.capacity h)

let test_heap_shrinks () =
  let h = Heap.create () in
  for i = 0 to 9_999 do
    Heap.push h ~time:(float_of_int i) i
  done;
  let full_cap = Heap.capacity h in
  Alcotest.(check bool) "grew" true (full_cap >= 10_000);
  for _ = 1 to 9_900 do
    ignore (Heap.pop_min_exn h)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "shrank (cap %d after 100/10000 remain)" (Heap.capacity h))
    true
    (Heap.capacity h < full_cap / 8);
  (* order still intact after shrinking *)
  let prev = ref neg_infinity in
  while not (Heap.is_empty h) do
    let t = Heap.min_time_exn h in
    ignore (Heap.pop_min_exn h);
    Alcotest.(check bool) "still sorted" true (t >= !prev);
    prev := t
  done

(* ------------------------------------------------------------------ *)
(* Rng streams                                                         *)
(* ------------------------------------------------------------------ *)

let test_rng_stream_keyed () =
  (* stream k is a pure function of (parent state, k): deriving in any
     order, or after draws from sibling streams, gives the same child *)
  let a = Rng.create 7 and b = Rng.create 7 in
  let a3 = Rng.stream a 3 in
  let _ = Rng.int a3 100 in
  let a5 = Rng.stream a 5 in
  let b5 = Rng.stream b 5 in
  let _ = Rng.int b5 100 in
  let b3 = Rng.stream b 3 in
  Alcotest.(check int) "stream 5 order-independent" (Rng.int a5 1_000_000)
    (Rng.int (Rng.stream b 5) 1_000_000);
  Alcotest.(check int) "stream 3 order-independent" (Rng.int b3 1_000_000)
    (Rng.int (Rng.stream a 3) 1_000_000);
  (* parent state untouched: split after stream = split without *)
  let p = Rng.create 11 and q = Rng.create 11 in
  let _ = Rng.stream p 42 in
  Alcotest.(check int) "parent not advanced"
    (Rng.int (Rng.split q) 1_000_000)
    (Rng.int (Rng.split p) 1_000_000)

let test_rng_stream_distinct () =
  let root = Rng.create 9 in
  let firsts =
    List.init 64 (fun k -> Rng.int (Rng.stream root k) 1_000_000_000)
  in
  let uniq = List.sort_uniq compare firsts in
  Alcotest.(check int) "64 streams, 64 distinct first draws" 64
    (List.length uniq)

let test_rng_derive_seed () =
  Alcotest.(check int) "deterministic"
    (Rng.derive_seed 101 ~stream:3)
    (Rng.derive_seed 101 ~stream:3);
  let seeds = List.init 100 (fun k -> Rng.derive_seed 101 ~stream:k) in
  Alcotest.(check int) "100 streams distinct" 100
    (List.length (List.sort_uniq compare seeds));
  List.iter
    (fun s -> Alcotest.(check bool) "non-negative" true (s >= 0))
    seeds

(* ------------------------------------------------------------------ *)
(* Fault plans                                                         *)
(* ------------------------------------------------------------------ *)

let prop_fault_plan_well_formed =
  QCheck2.Test.make ~name:"random_plan is well-formed" ~count:200
    QCheck2.Gen.(pair (int_bound 100_000) (int_range 1 8))
    (fun (seed, episodes) ->
      let rng = Rng.create seed in
      let switches = [ 0; 1; 2 ] in
      let links = [ (0, 1); (1, 2) ] in
      let horizon = 10. in
      let plan =
        Fault.random_plan ~rng ~switches ~links ~episodes ~horizon ()
      in
      (* sorted, in range *)
      let rec sorted = function
        | { Fault.at = a; _ } :: ({ Fault.at = b; _ } :: _ as rest) ->
            a <= b && sorted rest
        | [ _ ] | [] -> true
      in
      let in_range { Fault.at; _ } = at >= 0. && at <= horizon in
      (* per subject, downs and ups alternate starting with a down *)
      let alternates sel =
        let seqs = Hashtbl.create 4 in
        List.iter
          (fun { Fault.event; _ } ->
            match sel event with
            | Some (key, phase) ->
                let cur =
                  Option.value ~default:[] (Hashtbl.find_opt seqs key)
                in
                Hashtbl.replace seqs key (phase :: cur)
            | None -> ())
          plan;
        Hashtbl.fold
          (fun _ phases ok ->
            let rec alt expected = function
              | [] -> true
              | p :: rest -> p = expected && alt (not expected) rest
            in
            ok && alt true (List.rev phases))
          seqs true
      in
      let switch_ok =
        alternates (function
          | Fault.Switch_down n -> Some (n, true)
          | Fault.Switch_up n -> Some (n, false)
          | _ -> None)
      in
      let link_ok =
        alternates (function
          | Fault.Link_down (a, b) -> Some ((a, b), true)
          | Fault.Link_up (a, b) -> Some ((a, b), false)
          | _ -> None)
      in
      let subjects_ok =
        List.for_all
          (fun { Fault.event; _ } ->
            match event with
            | Fault.Switch_down n | Fault.Switch_up n
            | Fault.Counter_freeze n | Fault.Counter_thaw n
            | Fault.Counter_glitch n ->
                List.mem n switches
            | Fault.Link_down (a, b) | Fault.Link_up (a, b) ->
                List.mem (a, b) links
            | Fault.Ctrl_degrade { loss; delay; dup } ->
                loss >= 0. && loss <= 0.5 && delay >= 0. && dup >= 0.
                && dup <= 0.3
            | Fault.Ctrl_restore -> true
            | Fault.Report_storm { node; reports } ->
                List.mem node switches && reports > 0
            | Fault.Pcie_degrade { node; factor } ->
                List.mem node switches && factor > 1.
            | Fault.Pcie_restore n -> List.mem n switches
            | Fault.Traffic_surge { links = ls; factor } ->
                factor > 1. && List.for_all (fun l -> List.mem l links) ls
            | Fault.Traffic_calm { links = ls } ->
                List.for_all (fun l -> List.mem l links) ls)
          plan
      in
      sorted plan
      && List.for_all in_range plan
      && switch_ok && link_ok && subjects_ok)

let test_fault_inject_order () =
  (* events dispatch at their plan times, in order, with on_applied seeing
     the engine clock; past entries are clamped to now *)
  let engine = Engine.create () in
  let applied = ref [] in
  let handlers =
    { Fault.null_handlers with
      Fault.on_switch_down =
        (fun n -> applied := (`H n, Engine.now engine) :: !applied) }
  in
  let plan =
    [ { Fault.at = 0.5; event = Fault.Switch_down 2 };
      { Fault.at = 0.1; event = Fault.Switch_down 1 };
      { Fault.at = -1.; event = Fault.Switch_down 0 } ]
  in
  Fault.inject engine handlers plan ~on_applied:(fun at ev ->
      applied := (`A (at, Fault.event_to_string ev), Engine.now engine)
                 :: !applied);
  Engine.run engine;
  let got = List.rev !applied in
  Alcotest.(check int) "handler + on_applied per event" 6 (List.length got);
  let times = List.map snd got in
  Alcotest.(check (list (float 1e-12))) "dispatch times"
    [ 0.; 0.; 0.1; 0.1; 0.5; 0.5 ] times;
  match got with
  | (`H 0, _) :: (`A (0., "switch_down 0"), _) :: (`H 1, _) :: _ -> ()
  | _ -> Alcotest.fail "unexpected dispatch order"

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

let test_engine_order_and_clock () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:2. (fun e ->
      log := ("b", Engine.now e) :: !log);
  Engine.schedule e ~delay:1. (fun e ->
      log := ("a", Engine.now e) :: !log;
      Engine.schedule e ~delay:0.5 (fun e ->
          log := ("a2", Engine.now e) :: !log));
  Engine.run e;
  Alcotest.(check (list (pair string (float 1e-9))))
    "event order and times"
    [ ("a", 1.); ("a2", 1.5); ("b", 2.) ]
    (List.rev !log)

let test_engine_until () =
  let e = Engine.create () in
  let fired = ref 0 in
  Engine.schedule e ~delay:1. (fun _ -> incr fired);
  Engine.schedule e ~delay:5. (fun _ -> incr fired);
  Engine.run ~until:2. e;
  Alcotest.(check int) "only first fired" 1 !fired;
  check_float "clock stopped at until" 2. (Engine.now e)

let test_engine_periodic () =
  let e = Engine.create () in
  let count = ref 0 in
  let timer = Engine.every e ~period:1. (fun _ -> incr count) in
  Engine.run ~until:5.5 e;
  Alcotest.(check int) "5 ticks in 5.5s" 5 !count;
  Engine.cancel timer

let test_engine_cancel () =
  let e = Engine.create () in
  let count = ref 0 in
  let timer = Engine.every e ~period:1. (fun _ -> incr count) in
  Engine.schedule e ~delay:2.5 (fun _ -> Engine.cancel timer);
  Engine.run ~until:10. e;
  Alcotest.(check int) "cancelled after 2 ticks" 2 !count

(* A cancelled timer's cell stays queued until its due time, but must
   not keep its closure (and what the closure captured) alive that long:
   re-armed soil groups leave thousands of such cells in the wheel. *)
let test_engine_cancel_releases () =
  let e = Engine.create () in
  let w = Weak.create 1 in
  let[@inline never] arm () =
    let captured = Array.make (Sys.opaque_identity 8) 0 in
    Weak.set w 0 (Some captured);
    Engine.every e ~period:5. (fun _ -> captured.(0) <- captured.(0) + 1)
  in
  let timer = arm () in
  Gc.full_major ();
  Alcotest.(check bool) "armed timer keeps its closure" true
    (Weak.check w 0);
  Engine.cancel timer;
  Gc.full_major ();
  Alcotest.(check bool) "cancelled timer released its closure" false
    (Weak.check w 0);
  Alcotest.(check int) "cell still queued" 1 (Engine.pending e);
  Engine.run ~until:4. e;
  Alcotest.(check int) "nothing due yet" 0 (Engine.dispatched e);
  Engine.run ~until:6. e;
  Alcotest.(check int) "dispatched at its due time" 1 (Engine.dispatched e);
  Alcotest.(check int) "then gone" 0 (Engine.pending e);
  (* A burst in one tick: more one-shots than the freelist keeps (the
     rest are dropped with their callbacks set), in scrambled time
     order so the run's sort merges, plus cancelled timers due in the
     same tick.  A dispatched cell's closure must not stay reachable
     through the run or its merge buffer, neither while the rest of the
     run waits after [~until] nor once it is drained. *)
  let n = 1500 and cancelled = 8 in
  let time k = 10.0012 +. (float_of_int k *. 5e-8) in
  let key i = i * 7919 mod n in
  let ws = Weak.create (n + cancelled) in
  let[@inline never] burst () =
    for i = 0 to n - 1 do
      let captured = Array.make (Sys.opaque_identity 4) i in
      Weak.set ws i (Some captured);
      Engine.schedule_at e ~time:(time (key i)) (fun _ ->
          captured.(0) <- captured.(0) + 1)
    done;
    for i = 0 to cancelled - 1 do
      let captured = Array.make (Sys.opaque_identity 4) i in
      Weak.set ws (n + i) (Some captured);
      let tm =
        Engine.every e ~period:1. ~phase:(time (2 * i) -. Engine.now e)
          (fun _ -> captured.(0) <- captured.(0) + 1)
      in
      Engine.cancel tm
    done
  in
  burst ();
  let stop = 1300 in
  Engine.run ~until:(time stop +. 2.5e-8) e;
  Gc.full_major ();
  let released i = not (Weak.check ws i) in
  for i = 0 to n - 1 do
    let due = key i <= stop in
    if released i <> due then
      Alcotest.failf "one-shot %d (due %b) released %b after the stop" i due
        (released i)
  done;
  Alcotest.(check int) "rest of the run queued" (n - 1 - stop)
    (Engine.pending e);
  Engine.run ~until:11. e;
  Gc.full_major ();
  for i = 0 to n + cancelled - 1 do
    if not (released i) then
      Alcotest.failf "cell %d keeps its closure after the burst" i
  done

let test_engine_set_period () =
  let e = Engine.create () in
  let count = ref 0 in
  let timer = Engine.every e ~period:1. (fun _ -> incr count) in
  (* After 3 s, slow the timer down 10x.  The tick at t=4 was already
     scheduled with the old period, so ticks land at 1,2,3,4,14,24. *)
  Engine.schedule e ~delay:3.1 (fun _ -> Engine.set_period timer 10.);
  Engine.run ~until:25. e;
  Alcotest.(check int) "adaptive polling rate" 6 !count

let test_engine_past_raises () =
  let e = Engine.create () in
  Engine.schedule e ~delay:1. (fun e ->
      Alcotest.check_raises "past scheduling rejected"
        (Invalid_argument
           "Engine.schedule_at: time 0.5 is in the past (now 1)") (fun () ->
          Engine.schedule_at e ~time:0.5 (fun _ -> ())));
  Engine.run e

let test_engine_every_negative_phase () =
  let e = Engine.create () in
  Alcotest.check_raises "negative phase rejected"
    (Invalid_argument "Engine.every: negative phase") (fun () ->
      ignore (Engine.every e ~period:1. ~phase:(-0.5) ignore : Engine.timer));
  Alcotest.(check int) "nothing armed" 0 (Engine.pending e)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let test_metrics_counter () =
  let c = Metrics.Counter.create () in
  Metrics.Counter.add c 2.;
  Metrics.Counter.incr c;
  check_float "counter" 3. (Metrics.Counter.value c);
  Metrics.Counter.reset c;
  check_float "reset" 0. (Metrics.Counter.value c)

let test_metrics_histogram () =
  let h = Metrics.Histogram.create () in
  List.iter (Metrics.Histogram.record h) [ 1.; 2.; 3.; 4.; 5. ];
  Alcotest.(check int) "count" 5 (Metrics.Histogram.count h);
  check_float "mean" 3. (Metrics.Histogram.mean h);
  check_float "p50" 3. (Metrics.Histogram.percentile h 50.);
  check_float "p0" 1. (Metrics.Histogram.percentile h 0.);
  check_float "p100" 5. (Metrics.Histogram.percentile h 100.);
  check_float "max" 5. (Metrics.Histogram.max h);
  (* interpolation between ranks: p25 of [1..5] is rank 1.0 exactly, p30
     is 1/5 of the way from 2 to 3 *)
  check_float "p25" 2. (Metrics.Histogram.percentile h 25.);
  check_float "p30" 2.2 (Metrics.Histogram.percentile h 30.)

let test_metrics_histogram_edge () =
  let h = Metrics.Histogram.create () in
  (* empty: every percentile is 0 by convention *)
  check_float "empty p0" 0. (Metrics.Histogram.percentile h 0.);
  check_float "empty p50" 0. (Metrics.Histogram.percentile h 50.);
  check_float "empty p100" 0. (Metrics.Histogram.percentile h 100.);
  (* singleton: every percentile is the sample *)
  Metrics.Histogram.record h 7.5;
  check_float "singleton p0" 7.5 (Metrics.Histogram.percentile h 0.);
  check_float "singleton p50" 7.5 (Metrics.Histogram.percentile h 50.);
  check_float "singleton p100" 7.5 (Metrics.Histogram.percentile h 100.);
  (* recording after a percentile read re-sorts correctly *)
  Metrics.Histogram.record h 2.5;
  check_float "resorted p0" 2.5 (Metrics.Histogram.percentile h 0.);
  check_float "resorted p100" 7.5 (Metrics.Histogram.percentile h 100.);
  (* reset returns to the empty convention *)
  Metrics.Histogram.reset h;
  Alcotest.(check int) "reset count" 0 (Metrics.Histogram.count h);
  check_float "reset p50" 0. (Metrics.Histogram.percentile h 50.)

(* Summed in recording order, 1e16 + -1e16 + 1 is 1; in sorted order the
   1 is absorbed by -1e16 and the sum is 0.  The mean must not depend on
   whether a percentile has sorted the samples yet. *)
let test_metrics_histogram_mean_order () =
  let reg = Metrics.Registry.create () in
  let h = Metrics.Registry.histogram reg "h" in
  List.iter (Metrics.Histogram.record h) [ 1e16; -1e16; 1. ];
  check_float "mean before a percentile" 0. (Metrics.Histogram.mean h);
  ignore (Metrics.Histogram.percentile h 50. : float);
  check_float "mean after a percentile" 0. (Metrics.Histogram.mean h);
  Metrics.Histogram.reset h;
  List.iter (Metrics.Histogram.record h) [ 1e16; -1e16; 1. ];
  let fields = String.split_on_char ',' (Metrics.Registry.to_json reg) in
  Alcotest.(check bool) "to_json prints the sorted mean" true
    (List.mem " \"mean\": 0" fields)

let prop_histogram_percentile_monotone =
  QCheck2.Test.make ~name:"histogram percentiles monotone" ~count:100
    QCheck2.Gen.(list_size (int_range 1 50) (float_range (-100.) 100.))
    (fun xs ->
      let h = Metrics.Histogram.create () in
      List.iter (Metrics.Histogram.record h) xs;
      let ps = [ 0.; 10.; 25.; 50.; 75.; 90.; 100. ] in
      let vals = List.map (Metrics.Histogram.percentile h) ps in
      let rec mono = function
        | a :: (b :: _ as rest) -> a <= b +. 1e-9 && mono rest
        | [ _ ] | [] -> true
      in
      mono vals)

(* ------------------------------------------------------------------ *)
(* Timer-wheel vs seed binary-heap scheduler equivalence               *)
(* ------------------------------------------------------------------ *)

(* The common scheduling surface of the timer wheel and of the seed
   scheduler it is checked against ([Farm_sched_ref.Heap_sched], kept
   verbatim as the executable spec). *)
module type SCHED = sig
  type t
  type timer

  val create : unit -> t
  val now : t -> float
  val schedule : t -> delay:float -> (t -> unit) -> unit
  val schedule_at : t -> time:float -> (t -> unit) -> unit
  val every : t -> period:float -> ?phase:float -> (t -> unit) -> timer
  val cancel : timer -> unit
  val set_period : timer -> float -> unit
  val run : ?until:float -> t -> unit
  val dispatched : t -> int
end

module Wheel_sched : SCHED = struct
  include Engine

  let create () = Engine.create ()
end

type sc_timer = {
  st_period : float;
  st_phase : float option;
  st_cancel_at : float option; (* cancel via a scheduled one-shot *)
  st_retune : (float * float) option; (* (at, new period) via one-shot *)
}

type scenario = {
  sc_timers : sc_timer list;
  sc_shots : float list; (* one-shot delays from t=0 *)
  sc_chains : (float * float) list; (* outer delay, nested extra delay *)
  sc_split : float; (* fraction of horizon for the segmented run *)
  sc_horizon : float;
}

let show_scenario sc =
  let f = Printf.sprintf "%.17g" in
  let timer st =
    Printf.sprintf "{p=%s ph=%s cancel=%s retune=%s}" (f st.st_period)
      (match st.st_phase with None -> "-" | Some x -> f x)
      (match st.st_cancel_at with None -> "-" | Some x -> f x)
      (match st.st_retune with
      | None -> "-"
      | Some (at, p) -> Printf.sprintf "%s->%s" (f at) (f p))
  in
  Printf.sprintf "timers=[%s] shots=[%s] chains=[%s] split=%s horizon=%s"
    (String.concat "; " (List.map timer sc.sc_timers))
    (String.concat "; " (List.map f sc.sc_shots))
    (String.concat "; "
       (List.map (fun (a, b) -> Printf.sprintf "%s+%s" (f a) (f b)) sc.sc_chains))
    (f sc.sc_split) (f sc.sc_horizon)

(* Drive one scheduler implementation through a scenario and return a
   transcript of every dispatch: tag, source id and the exact clock
   ([%h] prints the full float bit pattern), plus the mid/end clock and
   the dispatch counter.  Two implementations agree iff the transcripts
   are byte-identical. *)
let run_scenario (type e) (module S : SCHED with type t = e) sc =
  let log = Buffer.create 4096 in
  let e = S.create () in
  let record tag id t = Printf.bprintf log "%s%d@%h;" tag id (S.now t) in
  List.iteri
    (fun i st ->
      let tm =
        S.every e ~period:st.st_period ?phase:st.st_phase (fun t ->
            record "t" i t)
      in
      Option.iter
        (fun at ->
          S.schedule e ~delay:at (fun t ->
              record "x" i t;
              S.cancel tm))
        st.st_cancel_at;
      Option.iter
        (fun (at, p) ->
          S.schedule e ~delay:at (fun t ->
              record "r" i t;
              S.set_period tm p))
        st.st_retune)
    sc.sc_timers;
  List.iteri (fun i d -> S.schedule e ~delay:d (fun t -> record "s" i t))
    sc.sc_shots;
  List.iteri
    (fun i (d, extra) ->
      S.schedule e ~delay:d (fun t ->
          record "c" i t;
          S.schedule t ~delay:extra (fun t -> record "C" i t)))
    sc.sc_chains;
  (* run in two segments so ~until clamping is part of the contract *)
  S.run ~until:(sc.sc_split *. sc.sc_horizon) e;
  Printf.bprintf log "|mid=%h|" (S.now e);
  S.run ~until:sc.sc_horizon e;
  Printf.bprintf log "|end=%h,n=%d|" (S.now e) (S.dispatched e);
  Buffer.contents log

(* [dense]: sub-tick and tie-prone periods over a short horizon — stresses
   slot hashing, the same-tick heap and FIFO tie-breaks.  [sparse]: long
   horizons past the wheel's top window (~3355 s at 0.1 ms ticks) —
   stresses the overflow heap, cascades and idle clock jumps. *)
let gen_scenario ~dense =
  let open QCheck2.Gen in
  let quantized lo step n = map (fun k -> lo +. (float_of_int k *. step)) (int_bound n) in
  let horizon = if dense then 0.25 else 5000. in
  let period =
    if dense then
      oneofl [ 7e-5; 1e-4; 2.5e-4; 5e-4; 1e-3; 3.3e-3; 0.01; 0.05 ]
    else oneofl [ 37.; 61.; 123.; 250.; 500.; 900. ]
  in
  let time =
    oneof
      [ float_range 0. horizon;
        quantized 0. (horizon /. 25.) 25;
        (if dense then oneofl [ 0.; 1e-4; 2.5e-4; 0.01; 0.1 ]
         else oneofl [ 0.; 37.; 500.; 3355.; 3356.; 4999. ]) ]
  in
  let timer =
    let* st_period = period in
    let* st_phase = option (oneof [ pure 0.; time; period ]) in
    let* st_cancel_at = option time in
    let* st_retune = option (pair time period) in
    pure { st_period; st_phase; st_cancel_at; st_retune }
  in
  let* sc_timers = list_size (int_bound 4) timer in
  let* sc_shots = list_size (int_bound 12) time in
  let* sc_chains =
    list_size (int_bound 4)
      (pair time (oneof [ pure 0.; float_range 0. (horizon /. 10.) ]))
  in
  let* sc_split = float_range 0.05 0.95 in
  pure { sc_timers; sc_shots; sc_chains; sc_split; sc_horizon = horizon }

(* Hundreds of events inside single 0.1 ms ticks.  The bursts sit 0.05
   tick into ticks 21, 137, 160 and 1502, which at t = 0 are on wheel
   levels 0, 1, 1 and 2.  Those on level 1 and 2 reach the cursor
   through cascades, which relink cells against seq order, so a
   tie-break by insertion order alone is wrong there; tick 160 starts
   its level-1 slot, so its whole burst lands on the cursor tick in one
   cascade and is dispatched from the same-tick heap.  Times inside a
   burst are quantized and one-shots come in same-time groups, so many
   tie exactly; chains re-arm into the tick being dispatched with zero
   or sub-tick delays, some earlier than cells still waiting in the
   run; and the segmented run stops inside a burst. *)
let burst_bases = [ 2.105e-3; 1.3705e-2; 1.6005e-2; 0.1502 ]

let gen_burst =
  let open QCheck2.Gen in
  let horizon = 0.25 in
  let time =
    let* base = oneofl burst_bases in
    let* k = int_bound 12 in
    pure (base +. (float_of_int k *. 7e-6))
  in
  let period = oneofl [ 7e-5; 1e-4; 2.5e-4; 0.01 ] in
  let timer =
    let* st_period = period in
    let* st_phase = option time in
    let* st_cancel_at = option time in
    let* st_retune = option (pair time period) in
    pure { st_period; st_phase; st_cancel_at; st_retune }
  in
  let* sc_timers = list_size (int_bound 4) timer in
  (* broadcasts: up to 96 copies at one time, scheduled back to back *)
  let* groups = list_size (int_range 2 10) (pair time (int_range 1 96)) in
  let sc_shots =
    List.concat_map (fun (d, k) -> List.init k (fun _ -> d)) groups
  in
  let* sc_chains =
    list_size (int_range 10 80)
      (pair time (oneofl [ 0.; 3e-6; 7e-6; 2e-5; 4e-5 ]))
  in
  let* stop = map2 ( +. ) (oneofl burst_bases) (float_range 0. 9e-5) in
  pure
    { sc_timers; sc_shots; sc_chains; sc_split = stop /. horizon;
      sc_horizon = horizon }

let prop_sched_equiv gen ~count name =
  QCheck2.Test.make ~name ~count ~print:show_scenario gen
    (fun sc ->
      let w = run_scenario (module Wheel_sched) sc in
      let h = run_scenario (module Heap_sched) sc in
      if String.equal w h then true
      else
        let first_diff =
          let n = min (String.length w) (String.length h) in
          let rec go i = if i < n && w.[i] = h.[i] then go (i + 1) else i in
          go 0
        in
        let ctx s =
          let from = max 0 (first_diff - 60) in
          String.sub s from (min 120 (String.length s - from))
        in
        QCheck2.Test.fail_reportf
          "dispatch transcripts diverge at byte %d:\n  wheel: …%s…\n  heap:  …%s…"
          first_diff (ctx w) (ctx h))

let prop_sched_equiv_dense =
  prop_sched_equiv (gen_scenario ~dense:true) ~count:80
    "wheel = heap (dense, ties, cancel, set_period)"

let prop_sched_equiv_sparse =
  prop_sched_equiv (gen_scenario ~dense:false) ~count:80
    "wheel = heap (sparse, overflow horizon)"

let prop_sched_equiv_burst =
  prop_sched_equiv gen_burst ~count:80
    "wheel = heap (bursts in one tick, same-tick chains, cascades)"

(* Deterministic far-future case: one-shots past the wheel's top window
   plus a slow periodic timer, with a time tie resolved FIFO. *)
let test_engine_far_future () =
  let e = Engine.create () in
  let log = ref [] in
  let record tag t = log := (tag, Engine.now t) :: !log in
  Engine.schedule_at e ~time:4000. (record "a");
  Engine.schedule_at e ~time:1. (record "b");
  Engine.schedule_at e ~time:4000. (record "c");
  ignore (Engine.every e ~period:1000. (record "p"));
  Engine.run ~until:7000. e;
  let expect =
    [ ("b", 1.); ("p", 1000.); ("p", 2000.); ("p", 3000.); ("a", 4000.);
      ("c", 4000.); ("p", 4000.); ("p", 5000.); ("p", 6000.); ("p", 7000.) ]
  in
  Alcotest.(check (list (pair string (float 0.))))
    "far-future dispatch order" expect (List.rev !log);
  check_float "clock at until" 7000. (Engine.now e);
  Alcotest.(check int) "dispatched" 10 (Engine.dispatched e)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "farm_sim"
    [ ( "rng",
        [ Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split independent" `Quick
            test_rng_split_independent;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "exponential mean" `Quick
            test_rng_exponential_mean;
          Alcotest.test_case "zipf skew" `Quick test_rng_zipf_skew;
          Alcotest.test_case "shuffle permutes" `Quick
            test_rng_shuffle_permutes;
          Alcotest.test_case "keyed streams" `Quick test_rng_stream_keyed;
          Alcotest.test_case "streams distinct" `Quick
            test_rng_stream_distinct;
          Alcotest.test_case "derive_seed" `Quick test_rng_derive_seed ] );
      ( "heap",
        [ Alcotest.test_case "order" `Quick test_heap_order;
          Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "pop_min_exn" `Quick test_heap_pop_min_exn;
          Alcotest.test_case "pop releases slot" `Quick
            test_heap_pop_releases;
          Alcotest.test_case "shrinks after drain" `Quick test_heap_shrinks ]
        @ qsuite
            [ prop_heap_sorted; prop_heap_exn_matches_pop; prop_heap_model ]
      );
      ( "fault",
        [ Alcotest.test_case "inject order" `Quick test_fault_inject_order ]
        @ qsuite [ prop_fault_plan_well_formed ] );
      ( "engine",
        [ Alcotest.test_case "order and clock" `Quick
            test_engine_order_and_clock;
          Alcotest.test_case "until" `Quick test_engine_until;
          Alcotest.test_case "periodic" `Quick test_engine_periodic;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "cancel releases the callback" `Quick
            test_engine_cancel_releases;
          Alcotest.test_case "set_period" `Quick test_engine_set_period;
          Alcotest.test_case "past raises" `Quick test_engine_past_raises;
          Alcotest.test_case "every: negative phase raises" `Quick
            test_engine_every_negative_phase;
          Alcotest.test_case "far future / overflow" `Quick
            test_engine_far_future ] );
      ( "scheduler equivalence",
        qsuite
          [ prop_sched_equiv_dense; prop_sched_equiv_sparse;
            prop_sched_equiv_burst ] );
      ( "metrics",
        [ Alcotest.test_case "counter" `Quick test_metrics_counter;
          Alcotest.test_case "histogram" `Quick test_metrics_histogram;
          Alcotest.test_case "histogram edge cases" `Quick
            test_metrics_histogram_edge;
          Alcotest.test_case "histogram mean is order-free" `Quick
            test_metrics_histogram_mean_order ]
        @ qsuite [ prop_histogram_percentile_monotone ] ) ]
