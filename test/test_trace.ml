(* Tests for the observability layer (ISSUE 7): the Trace sink — ring
   buffer flight-recorder semantics and Chrome trace_event encoding —
   the named-metric Registry, and the determinism contract the tracing
   architecture promises: traced event streams byte-identical across
   in-process replays and across sweep domain counts, and tracing being
   observationally inert (attaching a sink must not change simulation
   outcomes). *)

open Farm_sim

(* ------------------------------------------------------------------ *)
(* Trace sink mechanics                                                *)
(* ------------------------------------------------------------------ *)

let test_trace_unbounded () =
  let t = Trace.create () in
  (* push past the initial capacity to exercise growth *)
  for i = 0 to 2999 do
    Trace.instant t ~ts:(float_of_int i) ~cat:"c" ~name:"e"
      ~args:[ ("i", Trace.I i) ] ()
  done;
  Alcotest.(check int) "count" 3000 (Trace.count t);
  Alcotest.(check int) "nothing dropped" 0 (Trace.dropped t);
  let evs = Trace.events t in
  Alcotest.(check int) "events length" 3000 (List.length evs);
  Alcotest.(check (float 0.)) "oldest first" 0. (List.hd evs).Trace.ts;
  Trace.clear t;
  Alcotest.(check int) "cleared" 0 (Trace.count t)

let test_trace_ring_overwrites_oldest () =
  let t = Trace.create ~ring:4 () in
  for i = 1 to 10 do
    Trace.instant t ~ts:(float_of_int i) ~cat:"c" ~name:(string_of_int i) ()
  done;
  Alcotest.(check int) "holds ring size" 4 (Trace.count t);
  Alcotest.(check int) "overwritten counted" 6 (Trace.dropped t);
  Alcotest.(check (list string))
    "last n survive, oldest first"
    [ "7"; "8"; "9"; "10" ]
    (List.map (fun e -> e.Trace.name) (Trace.events t))

let test_trace_chrome_json () =
  let t = Trace.create () in
  Trace.span t ~ts:1.5 ~dur:0.25 ~cat:"soil.pcie" ~name:"transfer" ~tid:3
    ~args:[ ("bytes", Trace.F 128.) ]
    ();
  Trace.instant t ~ts:2. ~cat:"engine" ~name:"weird \"name\"\n"
    ~args:[ ("s", Trace.S "a\tb"); ("i", Trace.I (-7)) ]
    ();
  Trace.counter t ~ts:3. ~cat:"m" ~name:"depth" ~value:42. ();
  let j = Trace.to_chrome_json t in
  let has needle =
    let nl = String.length needle and jl = String.length j in
    let rec go i = i + nl <= jl && (String.sub j i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "envelope" true
    (String.length j > 20 && String.sub j 0 15 = {|{"traceEvents":|});
  (* fixed-point microsecond timestamps: 1.5 s -> 1500000.000 *)
  Alcotest.(check bool) "ts in fixed us" true (has {|"ts":1500000.000|});
  Alcotest.(check bool) "span phase + dur" true
    (has {|"ph":"X"|} && has {|"dur":250000.000|});
  Alcotest.(check bool) "instant phase" true (has {|"ph":"i"|});
  Alcotest.(check bool) "counter phase" true
    (has {|"ph":"C"|} && has {|"value":42|});
  Alcotest.(check bool) "strings escaped" true
    (has {|weird \"name\"\n|} && has {|a\tb|});
  Alcotest.(check bool) "tid carried" true (has {|"tid":3|})

(* ------------------------------------------------------------------ *)
(* Metric registry                                                     *)
(* ------------------------------------------------------------------ *)

let test_registry_register_or_get () =
  let r = Metrics.Registry.create () in
  let c1 = Metrics.Registry.counter r "a.b" in
  let c2 = Metrics.Registry.counter r "a.b" in
  Metrics.Counter.incr c1;
  Alcotest.(check (float 0.)) "same instance" 1. (Metrics.Counter.value c2);
  Alcotest.(check (option (float 0.))) "value by name" (Some 1.)
    (Metrics.Registry.value r "a.b")

let test_registry_kind_clash () =
  let r = Metrics.Registry.create () in
  ignore (Metrics.Registry.counter r "x");
  (match Metrics.Registry.gauge r "x" with
  | _ -> Alcotest.fail "kind clash must raise"
  | exception Invalid_argument _ -> ());
  match Metrics.Registry.histogram r "x" with
  | _ -> Alcotest.fail "kind clash must raise"
  | exception Invalid_argument _ -> ()

let test_registry_gauge_fn_replaces () =
  let r = Metrics.Registry.create () in
  Metrics.Registry.gauge_fn r "g" (fun () -> 1.);
  Metrics.Registry.gauge_fn r "g" (fun () -> 2.);
  Alcotest.(check (option (float 0.))) "newest owner wins" (Some 2.)
    (Metrics.Registry.value r "g")

let test_registry_snapshot_deterministic () =
  (* same metrics registered in different orders -> identical JSON *)
  let build names =
    let r = Metrics.Registry.create () in
    List.iter
      (fun n ->
        match n with
        | "h" ->
            let h = Metrics.Registry.histogram r "h" in
            List.iter (Metrics.Histogram.record h) [ 1.; 2.; 3. ]
        | "empty_h" -> ignore (Metrics.Registry.histogram r "empty_h")
        | n -> Metrics.Counter.add (Metrics.Registry.counter r n) 5.)
      names;
    Metrics.Registry.to_json r
  in
  let j1 = build [ "b"; "h"; "a"; "empty_h" ]
  and j2 = build [ "empty_h"; "a"; "b"; "h" ] in
  Alcotest.(check string) "order-independent snapshot" j1 j2;
  Alcotest.(check (list string))
    "names sorted"
    [ "a"; "b"; "empty_h"; "h" ]
    (let r = Metrics.Registry.create () in
     ignore (Metrics.Registry.counter r "b");
     ignore (Metrics.Registry.counter r "a");
     ignore (Metrics.Registry.histogram r "h");
     ignore (Metrics.Registry.histogram r "empty_h");
     Metrics.Registry.names r)

(* ------------------------------------------------------------------ *)
(* Determinism of traced runs                                          *)
(* ------------------------------------------------------------------ *)

(* A self-contained traced scenario, all state derived from [seed] (the
   Sweep contract).  Returns the Chrome JSON of every traced event and
   the canonical simulation digest. *)
let traced_digest ?(trace = true) seed =
  let w = Farm.World.create ~seed ~spines:2 ~leaves:3 ~hosts_per_leaf:1 () in
  let tr = Trace.create () in
  if trace then Engine.set_tracer w.Farm.World.engine (Some tr);
  (match Farm.World.deploy_catalog_task w "heavy-hitter" with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "heavy-hitter deploy: %s" m);
  Farm.World.background_traffic ~flows:20 w;
  Farm.World.run ~until:0.3 w;
  (Trace.to_chrome_json tr, Farm.Runtime.Seeder.digest w.Farm.World.seeder)

let prop_trace_replay_identical =
  QCheck2.Test.make ~name:"traced stream byte-identical across replays"
    ~count:4
    QCheck2.Gen.(int_range 1 10_000)
    (fun seed ->
      let j1, d1 = traced_digest seed in
      let j2, d2 = traced_digest seed in
      String.equal (d1 ^ j1) (d2 ^ j2)
      && String.length j1 > 100 (* the trace must not be trivially empty *))

let test_trace_domain_invariant () =
  let sweep domains =
    Sweep.run ~domains ~clamp:false 4 (fun i ->
        let j, d = traced_digest (Rng.derive_seed 7 ~stream:i) in
        d ^ j)
  in
  Alcotest.(check (array string))
    "1 domain vs 4 domains" (sweep 1) (sweep 4)

let test_tracing_is_inert () =
  (* attaching a sink must not perturb the simulation: the canonical
     digest (registry snapshot, seed state, harvester streams) is
     identical with tracing on and off *)
  let _, d_on = traced_digest ~trace:true 99 in
  let _, d_off = traced_digest ~trace:false 99 in
  Alcotest.(check string) "digest unchanged by tracing" d_on d_off

let () =
  Alcotest.run "farm_trace"
    [ ( "sink",
        [ Alcotest.test_case "unbounded append" `Quick test_trace_unbounded;
          Alcotest.test_case "ring overwrites oldest" `Quick
            test_trace_ring_overwrites_oldest;
          Alcotest.test_case "chrome JSON encoding" `Quick
            test_trace_chrome_json ] );
      ( "registry",
        [ Alcotest.test_case "register-or-get" `Quick
            test_registry_register_or_get;
          Alcotest.test_case "kind clash" `Quick test_registry_kind_clash;
          Alcotest.test_case "gauge_fn replaces" `Quick
            test_registry_gauge_fn_replaces;
          Alcotest.test_case "deterministic snapshot" `Quick
            test_registry_snapshot_deterministic ] );
      ( "determinism",
        [ QCheck_alcotest.to_alcotest prop_trace_replay_identical;
          Alcotest.test_case "sweep domain invariance" `Slow
            test_trace_domain_invariant;
          Alcotest.test_case "tracing is inert" `Quick test_tracing_is_inert ]
      ) ]
