(* One measured repetition of a workload, and the per-layer counts read
   off its world. *)

open Farm
module Engine = Sim.Engine
module Trace = Sim.Trace
module Seeder = Runtime.Seeder
module Soil = Runtime.Soil
module Harvester = Runtime.Harvester
module W = Workloads

type rep = {
  traced : bool;
  wall_s : float;  (* run phase at reference speed, trace draining excluded *)
  raw_wall_s : float;
  sim_s : float;
  events : int;
  alloc_bytes : float;
  minor : int;
  major : int;
  digest : string;
  reports : int;  (* accepted harvester reports, all tasks *)
  responses_ms : float list;
  table : (string * int * int) list;
      (* (task, answered, missed) per detecting task, and (seeder.deploy,
         accepted, refused) *)
  refused : string list;
  attempted : int;
  failed : int;
  deploy_ms : float list;  (* deploys of the run phase *)
  undeploy_ms : float list;
  counts : (string * float) list;  (* runtime.* and sim.trace.events.* *)
  top_heap_mb : float;  (* process heap peak when the run phase ended *)
}

let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs

(* Bytes allocated so far.  [Gc.allocated_bytes] reads minor-heap counts
   that only advance at minor collections, so short intervals read low;
   [Gc.minor_words] is exact, and direct major allocations are added. *)
let allocated_bytes () =
  let _, promoted, major = Gc.counters () in
  (Gc.minor_words () +. major -. promoted) *. float_of_int (Sys.word_size / 8)

(* Per-layer counts of one finished run: soil, harvester and seeder
   accounting, read through their public introspection. *)
let layer_counts (wd : W.world) ~sim_s =
  let s = W.seeder wd in
  let soils = Seeder.soils s in
  let ps = List.map Soil.poll_stats soils in
  let poll f = sum (fun (p : Soil.poll_stats) -> f p) ps in
  let requested = poll (fun p -> float_of_int p.requested)
  and completed = poll (fun p -> float_of_int p.completed) in
  let p50s =
    List.filter_map
      (fun soil ->
        let h = Soil.delivery_latency soil in
        if Sim.Metrics.Histogram.count h = 0 then None
        else Some (1e3 *. Sim.Metrics.Histogram.percentile h 50.))
      soils
  in
  let hs = List.map (fun (_, task) -> Seeder.harvester task) wd.W.deployed in
  let h f = sum (fun x -> float_of_int (f x)) hs in
  let i = float_of_int in
  [ ("runtime.soil.polls_requested", requested);
    ("runtime.soil.polls_completed", completed);
    ("runtime.soil.polls_dropped", poll (fun p -> i p.dropped));
    ("runtime.soil.asic_polls", poll (fun p -> i p.asic_polls));
    ("runtime.soil.aggregation_ratio",
     if requested = 0. then 0. else completed /. requested);
    ("runtime.soil.pcie_bytes_per_sim_s", poll (fun p -> p.pcie_bytes) /. sim_s);
    ("runtime.soil.delivery_sim_ms_p50",
     if p50s = [] then 0. else Stats.median p50s);
    ("runtime.harvester.offered", h Harvester.offered_count);
    ("runtime.harvester.received", h Harvester.received_count);
    ("runtime.harvester.stale_dropped", h Harvester.stale_dropped);
    ("runtime.harvester.dup_dropped", h Harvester.dup_dropped);
    ("runtime.harvester.shed", h Harvester.shed_count);
    ("runtime.seeder.collector_bytes_per_sim_s", Seeder.collector_bytes s /. sim_s);
    ("runtime.seeder.retransmissions", i (Seeder.retransmissions s));
    ("runtime.seeder.lost", i (Seeder.lost_messages s));
    ("runtime.seeder.migrations", i (Seeder.migrations s));
    ("runtime.seeder.checkpoints_shipped", i (Seeder.checkpoints_shipped s));
    ("runtime.seeder.checkpoint_bytes", Seeder.checkpoint_bytes s);
    ("runtime.seeder.heartbeats_sent", i (Seeder.heartbeats_sent s));
    ("runtime.seeder.detections", i (Seeder.detections s));
    ("runtime.seeder.false_detections", i (Seeder.false_detections s)) ]

(* The determinism digest: dispatched events, simulated clock, the whole
   metrics registry and the accepted-report count of every task.  Equal
   across reps of one seed and between traced and untraced runs. *)
let digest (wd : W.world) =
  let e = W.engine wd in
  let reports =
    List.rev_map
      (fun (name, task) ->
        Printf.sprintf "%s=%d" name
          (Harvester.received_count (Seeder.harvester task)))
      wd.W.deployed
  in
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "%d|%h|%s|%s" (Engine.dispatched e) (Engine.now e)
          (Sim.Metrics.Registry.to_json (Engine.metrics e))
          (String.concat "," reports)))

let rep (wl : W.t) ~seed size ~traced =
  let tracer = if traced then Some (Trace.create ()) else None in
  let wd =
    Spans.with_span ~cat:"setup" (wl.name ^ ".setup") (fun () ->
        wl.setup ~seed size tracer)
  in
  let cats = Hashtbl.create 16 in
  let e = W.engine wd in
  Gc.full_major ();
  let g0 = Gc.quick_stat () and a0 = allocated_bytes () in
  let kw0 = !Calib.kernel_words and km0 = !Calib.kernel_minors in
  let ev0 = Engine.dispatched e and now0 = Engine.now e in
  let setup_deploys = List.length wd.W.deploy_ms in
  let timer = Calib.start () in
  (* every simulated slice is one calibrated lap; a traced run counts and
     releases the slice's events between laps, so its time measures
     recording only *)
  wd.on_slice <-
    (fun () ->
      Calib.lap timer;
      Option.iter
        (fun tr ->
          Calib.exclude timer (fun () ->
              Trace.iter
                (fun ev ->
                  Hashtbl.replace cats ev.Trace.cat
                    (1 + Option.value (Hashtbl.find_opt cats ev.Trace.cat) ~default:0))
                tr;
              Trace.clear tr))
        tracer);
  Spans.with_span ~cat:"run" (wl.name ^ (if traced then ".run.traced" else ".run"))
    (fun () -> wl.run size wd);
  Calib.lap timer;
  (* the calibration kernel's allocations and forced collections are not
     the workload's *)
  let alloc_bytes =
    allocated_bytes () -. a0
    -. ((!Calib.kernel_words -. kw0) *. float_of_int (Sys.word_size / 8))
  and g1 = Gc.quick_stat () in
  let kernel_minors = !Calib.kernel_minors - km0 in
  let top_heap_mb = float_of_int (g1.top_heap_words * (Sys.word_size / 8)) /. 1e6 in
  let sim_s = Engine.now e -. now0 and events = Engine.dispatched e - ev0 in
  let responses_ms, table = wl.responses wd in
  let refused = List.length wd.W.refused in
  let table = table @ [ ("seeder.deploy", wd.W.deploys - refused, refused) ] in
  let reports =
    List.fold_left
      (fun acc (_, task) -> acc + Harvester.received_count (Seeder.harvester task))
      0 wd.W.deployed
  in
  let digest = digest wd in
  let counts =
    layer_counts wd ~sim_s
    @ List.map
        (fun c ->
          ( "sim.trace.events." ^ c,
            float_of_int (Option.value (Hashtbl.find_opt cats c) ~default:0) ))
        Manifest.trace_categories
  in
  (* tear down, timing each undeploy *)
  Spans.with_span ~cat:"setup" (wl.name ^ ".teardown") (fun () ->
      while wd.W.live <> [] do
        W.undeploy_oldest wd
      done);
  { traced; wall_s = timer.reference; raw_wall_s = timer.raw; sim_s; events;
    alloc_bytes;
    minor = g1.minor_collections - g0.minor_collections - kernel_minors;
    major = g1.major_collections - g0.major_collections;
    digest; reports; responses_ms; table;
    attempted = List.fold_left (fun acc (_, a, m) -> acc + a + m) 0 table;
    failed = List.fold_left (fun acc (_, _, m) -> acc + m) 0 table;
    refused = List.rev wd.W.refused;
    deploy_ms =
      List.filteri
        (fun i _ -> i < List.length wd.W.deploy_ms - setup_deploys)
        wd.W.deploy_ms;
    undeploy_ms = wd.W.undeploy_ms; counts;
    top_heap_mb }

(* Set-ups outside any run (World.create + deploys + traffic install),
   repeated until at least [min_builds] ran and [min_time] seconds passed.
   Returns the seconds of each, at reference speed, and every deploy
   latency. *)
let setups (wl : W.t) ~seed size ~min_builds ~min_time =
  let start = Spans.now_ns () in
  let rec go acc n =
    if n >= min_builds && Spans.seconds_since start >= min_time then acc
    else
      let wd, s =
        Calib.measure (fun () ->
            Spans.with_span ~cat:"setup" (wl.name ^ ".setup") (fun () ->
                wl.setup ~seed size None))
      in
      go ((s, wd.W.deploy_ms) :: acc) (n + 1)
  in
  go [] 0
