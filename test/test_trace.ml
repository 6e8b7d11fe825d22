(* Tests for the observability layer: the Trace sink — ring buffer
   flight-recorder semantics, Chrome trace_event encoding, allocation-free
   recording and a qcheck round trip of the slot encoding — golden traces
   of two worlds that reach every emission site, the named-metric
   Registry, and the determinism contract the tracing architecture
   promises: traced event streams byte-identical across in-process
   replays and across sweep domain counts, and tracing being
   observationally inert (attaching a sink must not change simulation
   outcomes). *)

open Farm_sim

(* ------------------------------------------------------------------ *)
(* Trace sink mechanics                                                *)
(* ------------------------------------------------------------------ *)

let c_c = Trace.key "c"
let n_e = Trace.key "e"
let k_i = Trace.key "i"
let k_f = Trace.key "f"
let k_s = Trace.key "s"

let test_trace_unbounded () =
  let t = Trace.create () in
  let name = Trace.name t n_e in
  (* push past the initial capacity to exercise growth *)
  for i = 0 to 2999 do
    Trace.instant t ~ts:(float_of_int i) ~cat:c_c ~name ~tid:0;
    Trace.arg_i t k_i i
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
    Trace.instant t ~ts:(float_of_int i) ~cat:c_c
      ~name:(Trace.intern t (string_of_int i)) ~tid:0
  done;
  Alcotest.(check int) "holds ring size" 4 (Trace.count t);
  Alcotest.(check int) "overwritten counted" 6 (Trace.dropped t);
  Alcotest.(check (list string))
    "last n survive, oldest first"
    [ "7"; "8"; "9"; "10" ]
    (List.map (fun e -> e.Trace.name) (Trace.events t))

let c_pcie = Trace.key "soil.pcie"
let k_bytes = Trace.key "bytes"
let c_engine = Trace.key "engine"

let test_trace_chrome_json () =
  let t = Trace.create () in
  Trace.span t ~ts:1.5 ~dur:0.25 ~cat:c_pcie ~name:(Trace.intern t "transfer")
    ~tid:3;
  Trace.arg_f t k_bytes 128.;
  Trace.instant t ~ts:2. ~cat:c_engine
    ~name:(Trace.intern t "weird \"name\"\n") ~tid:0;
  Trace.arg_s t k_s (Trace.intern t "a\tb");
  Trace.arg_i t k_i (-7);
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
  Alcotest.(check bool) "args in order" true
    (has {|"args":{"bytes":128}|} && has {|"args":{"s":"a\tb","i":-7}|});
  Alcotest.(check bool) "strings escaped" true
    (has {|weird \"name\"\n|} && has {|a\tb|});
  Alcotest.(check bool) "tid carried" true (has {|"tid":3|})

let test_trace_recording_allocates_nothing () =
  let t = Trace.create ~ring:256 () in
  let sv = Trace.intern t "v" in
  let record i =
    let name = Trace.name t n_e in
    Trace.instant t ~ts:1.5 ~cat:c_c ~name ~tid:i;
    Trace.arg_i t k_i i;
    Trace.arg_f t k_f 2.5;
    Trace.arg_s t k_s sv;
    Trace.span t ~ts:1.5 ~dur:0.5 ~cat:c_c ~name ~tid:i;
    Trace.arg_f t k_f 2.5
  in
  (* the first pass allocates the ring's payload columns *)
  for i = 1 to 512 do record i done;
  let w0 = Gc.minor_words () in
  for i = 1 to 10_000 do record i done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool)
    (Printf.sprintf "no per-event allocation (%.0f words)" words)
    true (words < 100.)

let test_trace_label_cap () =
  (* categories and argument keys share one 13-bit field per sink *)
  let t = Trace.create ~ring:1 () in
  let keys = Array.init 8193 (fun i -> Trace.key (Printf.sprintf "l%d" i)) in
  let name = Trace.name t n_e in
  for i = 0 to 8191 do
    Trace.instant t ~ts:0. ~cat:keys.(i) ~name ~tid:0
  done;
  (match Trace.instant t ~ts:0. ~cat:keys.(8192) ~name ~tid:0 with
  | () -> Alcotest.fail "the 8193rd label must raise"
  | exception Invalid_argument _ -> ());
  (* a label already held is still accepted at the cap *)
  Trace.instant t ~ts:1. ~cat:keys.(5) ~name ~tid:0;
  Trace.arg_i t keys.(8191) 1;
  Alcotest.(check string) "held labels decode" "l5"
    (List.hd (Trace.events t)).Trace.cat

let c_shared = Trace.key "shared"
let c_other = Trace.key "other"

let test_trace_key_per_sink () =
  (* the same key resolves to a different id in each sink: [a] sees
     another label first.  Both keep it across [clear]. *)
  let a = Trace.create () and b = Trace.create () in
  let ev t ts cat = Trace.instant t ~ts ~cat ~name:(Trace.name t n_e) ~tid:0 in
  ev a 0. c_other;
  ev a 1. c_shared;
  Trace.arg_i a c_shared 1;
  ev b 2. c_shared;
  Trace.arg_i b c_other 2;
  Trace.clear a;
  ev a 3. c_shared;
  Trace.arg_i a c_other 3;
  let show t =
    List.map
      (fun e ->
        ( e.Trace.cat,
          List.map
            (function k, Trace.I v -> Printf.sprintf "%s=%d" k v | k, _ -> k)
            e.Trace.args ))
      (Trace.events t)
  in
  Alcotest.(check (list (pair string (list string))))
    "sink a after clear" [ ("shared", [ "other=3" ]) ] (show a);
  Alcotest.(check (list (pair string (list string))))
    "sink b" [ ("shared", [ "other=2" ]) ] (show b)

(* ------------------------------------------------------------------ *)
(* Encoding round trip                                                 *)
(* ------------------------------------------------------------------ *)

(* The labels a generated event may use, each with its key, built once:
   a key is declared at module level, never per event. *)
let gen_labels =
  List.map
    (fun s -> (s, Trace.key s))
    [ "c"; "soil.pcie"; "q\"x"; "k\n"; "seed"; "a\\b" ]

(* One generated event: strings stay strings here; the test interns them
   (and looks their labels' keys up) while recording.  The stream is
   replayed [reps] times with every name suffixed by its position, so a
   case holds more distinct names than any 16-bit id field and more
   events than the largest storage chunk. *)
type gen_event = {
  g_ts : float;
  g_dur : float option;
  g_cat : string;
  g_name : string;
  g_tid : int;
  g_args : (string * Trace.arg) list;
}

let gen_stream =
  let open QCheck2.Gen in
  let escapes = oneofl [ "\""; "\\"; "\n"; "\t"; "\r"; "\001"; "\031"; "é" ] in
  let str =
    map2 (fun a b -> a ^ b) (string_size ~gen:printable (int_range 0 6)) escapes
  in
  let label = oneofl (List.map fst gen_labels) in
  let int =
    oneof [ int; int_range (-5) 5; pure min_int; pure max_int; pure (-1) ]
  in
  let float =
    oneof
      [ float; float_range (-1e3) 1e3; pure nan; pure (-0.); pure infinity;
        pure neg_infinity; pure Float.min_float ]
  in
  let arg =
    pair label
      (oneof
         [ map (fun i -> Trace.I i) int; map (fun f -> Trace.F f) float;
           map (fun s -> Trace.S s) str ])
  in
  let tid =
    oneof [ int_range 0 8; int_range 1024 1_000_000; pure max_int; pure 0 ]
  in
  let ev =
    map
      (fun ((g_ts, g_dur, g_cat), (g_name, g_tid, g_args)) ->
        { g_ts; g_dur; g_cat; g_name; g_tid; g_args })
      (pair
         (triple float (opt float) label)
         (triple str tid (list_size (int_range 0 3) arg)))
  in
  pair (list_size (int_range 1 40) ev) (int_range 1 3000)

let reps evs = 1 + (70_000 / List.length evs)

(* Event [i] of the replayed stream, as [Trace.events] must return it. *)
let nth_event evs i =
  let g = List.nth evs (i mod List.length evs) in
  { Trace.ts = g.g_ts; cat = g.g_cat;
    name = Printf.sprintf "%s#%d" g.g_name i; tid = g.g_tid;
    ph = (match g.g_dur with Some d -> Trace.Span d | None -> Trace.Instant);
    args = g.g_args }

let record t (ev : Trace.event) =
  let cat = List.assoc ev.cat gen_labels and name = Trace.intern t ev.name in
  (match ev.ph with
  | Trace.Instant -> Trace.instant t ~ts:ev.ts ~cat ~name ~tid:ev.tid
  | Trace.Span dur -> Trace.span t ~ts:ev.ts ~dur ~cat ~name ~tid:ev.tid);
  List.iter
    (fun (k, v) ->
      let k = List.assoc k gen_labels in
      match v with
      | Trace.I i -> Trace.arg_i t k i
      | Trace.F f -> Trace.arg_f t k f
      | Trace.S s -> Trace.arg_s t k (Trace.intern t s))
    ev.args

(* Structural equality with floats compared bit for bit: [nan] payloads
   and the sign of zero must survive too. *)
let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_event (a : Trace.event) (b : Trace.event) =
  let same_arg (ka, va) (kb, vb) =
    String.equal ka kb
    &&
    match (va, vb) with
    | Trace.I x, Trace.I y -> x = y
    | Trace.F x, Trace.F y -> same_float x y
    | Trace.S x, Trace.S y -> String.equal x y
    | _ -> false
  in
  same_float a.ts b.ts && String.equal a.cat b.cat && String.equal a.name b.name
  && a.tid = b.tid
  && (match (a.ph, b.ph) with
     | Trace.Instant, Trace.Instant -> true
     | Trace.Span x, Trace.Span y -> same_float x y
     | _ -> false)
  && List.length a.args = List.length b.args
  && List.for_all2 same_arg a.args b.args

let rec same_from evs got i =
  match got with
  | [] -> true
  | ev :: rest -> same_event (nth_event evs i) ev && same_from evs rest (i + 1)

let prop_roundtrip_unbounded =
  QCheck2.Test.make ~name:"events round-trip through the slot encoding"
    ~count:3 gen_stream (fun (evs, _) ->
      let t = Trace.create () in
      let n = List.length evs * reps evs in
      for i = 0 to n - 1 do record t (nth_event evs i) done;
      Trace.count t = n && Trace.dropped t = 0
      && same_from evs (Trace.events t) 0)

let prop_roundtrip_ring =
  QCheck2.Test.make ~name:"ring keeps the last n events, counts the rest"
    ~count:3 gen_stream (fun (evs, ring) ->
      let t = Trace.create ~ring () in
      let n = List.length evs * reps evs in
      for i = 0 to n - 1 do record t (nth_event evs i) done;
      Trace.count t = ring && Trace.dropped t = n - ring
      && same_from evs (Trace.events t) (n - ring))

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

(* ------------------------------------------------------------------ *)
(* Golden traces                                                       *)
(* ------------------------------------------------------------------ *)

module World = Farm.World
module Seeder = Farm.Runtime.Seeder
module Control = Farm.Runtime.Control

(* The bench smoke's heavy-hitter world: background traffic plus one
   elephant at 0.3 s, traced for 1 s of simulated time. *)
let smoke_world tr =
  let w = World.create ~seed:4242 ~spines:2 ~leaves:4 ~hosts_per_leaf:1 () in
  Engine.set_tracer w.World.engine (Some tr);
  (match World.deploy_catalog_task w "heavy-hitter" with
  | Ok _ -> ()
  | Error m -> failwith ("heavy-hitter deploy: " ^ m));
  World.background_traffic ~flows:32 w;
  ignore
    (Farm.Net.Traffic.heavy_hitter w.World.engine w.World.fabric w.World.rng
       ~at:0.3 ~rate:2e7 ());
  World.run ~until:1.0 w

(* The same fabric with every overload layer and self-healing on, driven
   through one of each stress: a PCIe slowdown, a lossy control plane, a
   switch crash and reboot, two report storms, and a late deploy that
   pushes a movable seed to another switch.  The retry cap is tightened
   so the lossy phase also reaches it.  Every emission site in the
   library fires. *)
let storm_world tr =
  let config =
    { Seeder.overload_defaults with
      Seeder.auto_heal = true;
      ctrl_protection =
        { Control.default_protection with Control.max_inflight_retries = 2 } }
  in
  let w =
    World.create ~seed:4242 ~spines:2 ~leaves:4 ~hosts_per_leaf:1
      ~seeder_config:config ()
  in
  Engine.set_tracer w.World.engine (Some tr);
  let placed = function Ok t -> t | Error m -> failwith ("deploy: " ^ m) in
  let hh = placed (World.deploy_catalog_task w "heavy-hitter") in
  (* a movable seed whose utility grows with its CPU share *)
  let greedy i k =
    Printf.sprintf
      "machine Greedy%d { place any; long x = 0;\n\
      \  state s { util (res) { return %d * res.vCPU; } } }" i k
  in
  ignore (placed (World.deploy_source w ~name:"g0" (greedy 0 50)));
  World.background_traffic ~flows:32 w;
  ignore
    (Farm.Net.Traffic.heavy_hitter w.World.engine w.World.fabric w.World.rng
       ~at:0.3 ~rate:2e7 ());
  let nodes =
    List.sort_uniq compare
      (List.map Farm.Runtime.Seed_exec.node (Seeder.seeds w.World.seeder hh))
  in
  let victim = List.hd nodes and stormy = List.nth nodes 2 in
  let slow = List.nth nodes (List.length nodes - 1) in
  Farm_runtime.Chaos.inject w.World.seeder
    Fault.
      [ { at = 0.1; event = Pcie_degrade { node = slow; factor = 50. } };
        { at = 0.2; event = Ctrl_degrade { loss = 0.7; delay = 1e-3; dup = 0.1 } };
        { at = 0.21; event = Report_storm { node = stormy; reports = 2000 } };
        { at = 0.3; event = Switch_down victim };
        { at = 0.5; event = Switch_up victim };
        { at = 0.6; event = Ctrl_restore };
        { at = 0.7; event = Pcie_restore slow };
        { at = 0.9; event = Report_storm { node = victim; reports = 2000 } } ];
  (* a more valuable task lands next to g0's seed and pushes it away *)
  Engine.schedule_at w.World.engine ~time:0.15 (fun _ ->
      ignore (placed (World.deploy_source w ~name:"g1" (greedy 1 5000))));
  World.run ~until:1.2 w

(* (cat, name) pairs in a trace; handler and transition names vary with
   the task, so those two categories count as one pair each. *)
let pairs tr =
  let seen = Hashtbl.create 64 in
  Trace.iter
    (fun ev ->
      let name =
        match ev.Trace.cat with
        | "seed.handler" | "seed.transit" -> "*"
        | _ -> ev.Trace.name
      in
      Hashtbl.replace seen (ev.Trace.cat, name) ())
    tr;
  Hashtbl.fold (fun k () acc -> k :: acc) seen [] |> List.sort compare

(* MD5 of each world's Chrome JSON, computed on the trace encoding that
   preceded the single slot layout (the storm world's since reports got
   their own retry jitter): the rewrite must not move a byte. *)
let golden =
  [ ( "smoke heavy-hitter world", smoke_world,
      "0aaa37951685fcd65266fc704a2f6b7a",
      [ ("engine", "dispatch"); ("harvester", "report");
        ("seed.handler", "*"); ("seed.transit", "*");
        ("seeder", "ctrl_send"); ("seeder", "instantiate");
        ("soil", "asic_poll"); ("soil.ipc", "deliver");
        ("soil.pcie", "transfer") ] );
    ( "overload storm world", storm_world,
      "d65cb03a7783abdbef4087c5765499f1",
      [ ("engine", "dispatch"); ("harvester", "report");
        ("harvester", "report_dropped"); ("harvester", "report_shed");
        ("seed.handler", "*"); ("seed.overload", "degradation");
        ("seed.transit", "*"); ("seeder", "checkpoint");
        ("seeder", "ctrl_breaker_drop"); ("seeder", "ctrl_lost");
        ("seeder", "ctrl_rate_limited"); ("seeder", "ctrl_retry");
        ("seeder", "ctrl_retry_capped"); ("seeder", "ctrl_send");
        ("seeder", "declare_failed"); ("seeder", "heartbeat");
        ("seeder", "instantiate"); ("seeder", "migrate");
        ("seeder", "report_storm"); ("soil", "asic_poll");
        ("soil", "poll_dropped"); ("soil", "poll_shed");
        ("soil", "pressure_off"); ("soil", "pressure_on");
        ("soil.ipc", "deliver"); ("soil.pcie", "transfer") ] ) ]

let test_golden (_, world, md5, expected) () =
  let tr = Trace.create () in
  world tr;
  let seen = pairs tr in
  List.iter
    (fun (cat, name) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s recorded" cat name)
        true (List.mem (cat, name) seen))
    expected;
  Alcotest.(check string) "Chrome JSON MD5" md5
    (Digest.to_hex (Digest.string (Trace.to_chrome_json tr)))

(* Every emitter, the harvester included, records into the engine's
   current sink: after a swap everything goes to the new sink, and after
   a detach nowhere.  The sink is swapped after deploy and before the
   first elephant; a second one arrives after the detach. *)
let test_sink_swap () =
  let a = Trace.create () and b = Trace.create () in
  let w = World.create ~seed:4242 ~spines:2 ~leaves:4 ~hosts_per_leaf:1 () in
  Engine.set_tracer w.World.engine (Some a);
  (match World.deploy_catalog_task w "heavy-hitter" with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "heavy-hitter deploy: %s" m);
  World.background_traffic ~flows:32 w;
  List.iter
    (fun at ->
      ignore
        (Farm.Net.Traffic.heavy_hitter w.World.engine w.World.fabric
           w.World.rng ~at ~rate:2e7 ()))
    [ 0.3; 1.05 ];
  World.run ~until:0.2 w;
  let n_a = Trace.count a in
  Engine.set_tracer w.World.engine (Some b);
  World.run ~until:1.0 w;
  let n_b = Trace.count b in
  Engine.set_tracer w.World.engine None;
  World.run ~until:1.2 w;
  let cats tr =
    let seen = ref [] in
    Trace.iter
      (fun ev ->
        if not (List.mem ev.Trace.cat !seen) then seen := ev.Trace.cat :: !seen)
      tr;
    List.sort compare !seen
  in
  Alcotest.(check int) "nothing reaches the old sink" n_a (Trace.count a);
  Alcotest.(check int) "nothing reaches a detached sink" n_b (Trace.count b);
  Alcotest.(check (list string))
    "every category lands in the new sink"
    [ "engine"; "harvester"; "seed.handler"; "seeder"; "soil"; "soil.ipc";
      "soil.pcie" ]
    (List.filter (fun c -> c <> "seed.transit") (cats b))

(* A sink attached after deploy, to a world that ran untraced, gets the
   handler events of the seeds already running. *)
let test_sink_attached_late () =
  let w = World.create ~seed:4242 ~spines:2 ~leaves:4 ~hosts_per_leaf:1 () in
  (match World.deploy_catalog_task w "heavy-hitter" with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "heavy-hitter deploy: %s" m);
  World.background_traffic ~flows:32 w;
  World.run ~until:0.1 w;
  let tr = Trace.create () in
  Engine.set_tracer w.World.engine (Some tr);
  World.run ~until:0.2 w;
  let handlers = ref 0 in
  Trace.iter
    (fun ev -> if ev.Trace.cat = "seed.handler" then incr handlers)
    tr;
  Alcotest.(check bool) "seed.handler events reach the late sink" true
    (!handlers > 0)

let () =
  Alcotest.run "farm_trace"
    [ ( "sink",
        [ Alcotest.test_case "unbounded append" `Quick test_trace_unbounded;
          Alcotest.test_case "ring overwrites oldest" `Quick
            test_trace_ring_overwrites_oldest;
          Alcotest.test_case "chrome JSON encoding" `Quick
            test_trace_chrome_json;
          Alcotest.test_case "recording allocates nothing" `Quick
            test_trace_recording_allocates_nothing;
          Alcotest.test_case "8192 labels per sink" `Quick
            test_trace_label_cap;
          Alcotest.test_case "a key resolves per sink" `Quick
            test_trace_key_per_sink;
          QCheck_alcotest.to_alcotest prop_roundtrip_unbounded;
          QCheck_alcotest.to_alcotest prop_roundtrip_ring ] );
      ( "registry",
        [ Alcotest.test_case "register-or-get" `Quick
            test_registry_register_or_get;
          Alcotest.test_case "kind clash" `Quick test_registry_kind_clash;
          Alcotest.test_case "gauge_fn replaces" `Quick
            test_registry_gauge_fn_replaces;
          Alcotest.test_case "deterministic snapshot" `Quick
            test_registry_snapshot_deterministic ] );
      ( "golden",
        List.map
          (fun ((name, _, _, _) as g) ->
            Alcotest.test_case name `Quick (test_golden g))
          golden
        @ [ Alcotest.test_case "sink swap and detach" `Quick test_sink_swap;
            Alcotest.test_case "sink attached after deploy" `Quick
              test_sink_attached_late ]
      );
      ( "determinism",
        [ QCheck_alcotest.to_alcotest prop_trace_replay_identical;
          Alcotest.test_case "sweep domain invariance" `Slow
            test_trace_domain_invariant;
          Alcotest.test_case "tracing is inert" `Quick test_tracing_is_inert ]
      ) ]
