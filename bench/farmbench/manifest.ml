(* Every metric farmbench reports, with its unit, direction and — for the
   end-to-end ones — the regression bound.  BENCHMARK.json at the
   repository root lists the same metrics; the smoke run checks that the
   two agree and that every run emits exactly these names. *)

type better = Higher | Lower

type metric = { name : string; unit : string; better : better; bound : float }

let m ?(bound = 0.) name unit better = { name; unit; better; bound }

(* Bounds are shares of the parent's median.  This is the largest bound
   BENCHMARK.json admits, 0.25, for every metric but the heap: across ten
   seeds on the 2-core reference host the calibrated wall-clock metrics
   spread up to 8% (and in one busy hour read up to 29% slower), and the
   simulated latencies — exact for one seed — up to 14% from seed to seed.
   The heap peak spreads under 3%. *)
let end_to_end =
  [ m "sim_s_per_wall_s" "sim_s/s" Higher ~bound:0.25;
    m "setup_s" "s" Lower ~bound:0.25;
    m "deploy_ms_p50" "ms" Lower ~bound:0.25;
    m "deploy_ms_p90" "ms" Lower ~bound:0.25;
    m "response_sim_ms_p50" "sim_ms" Lower ~bound:0.25;
    m "response_sim_ms_p80" "sim_ms" Lower ~bound:0.25;
    m "ok_share" "share" Higher ~bound:0.25;
    m "heap_peak_mb" "MB" Lower ~bound:0.2 ]

(* A layer timed from outside: [time_unit] per [op], plus bytes per op. *)
type timed = { layer : string; op : string; time_unit : string; suffix : string }

let timed ?(suffix = "") layer op time_unit = { layer; op; time_unit; suffix }

let time_name t = Printf.sprintf "%s.%s_per_%s%s" t.layer t.time_unit t.op t.suffix
let bytes_name t = Printf.sprintf "%s.bytes_per_%s%s" t.layer t.op t.suffix

let size_curve = [ ("sw6", (2, 4)); ("sw24", (4, 20)); ("sw96", (8, 88)) ]

let timed_layers =
  List.map (fun l -> timed ("almanac." ^ l) "catalog" "us")
    [ "parser"; "typecheck"; "lint"; "analysis"; "compile" ]
  @ [ timed "almanac.exec" "poll_activation" "ns";
      timed "almanac.exec" "probe_activation" "ns";
      timed "almanac.interp" "poll_activation" "ns";
      timed "almanac.machine_xml" "roundtrip" "us" ]
  @ List.map
      (fun (s, _) -> timed "placement.heuristic" "optimize" "ms" ~suffix:("." ^ s))
      size_curve
  @ [ timed "placement.heuristic" "incremental" "ms" ~suffix:".sw20";
      timed "placement.conflict" "check" "ms" ]
  @ List.map
      (fun (s, _) -> timed "net.fabric" "flow_churn" "us" ~suffix:("." ^ s))
      size_curve
  @ [ timed "net.switch_model" "sample_packet" "ns";
      timed "net.switch_model" "poll_subject" "ns";
      timed "sim.engine" "event" "ns";
      timed "runtime.soil" "delivered_poll" "ns";
      timed "runtime.harvester" "handle" "ns";
      timed "runtime.checkpoint" "encode" "us";
      timed "runtime.checkpoint" "decode" "us" ]

(* Trace categories the library emits (cat strings of [Sim.Trace]). *)
let trace_categories =
  [ "engine"; "soil"; "soil.pcie"; "soil.ipc"; "seed"; "seed.handler";
    "seed.transit"; "seed.overload"; "seeder"; "harvester" ]

(* Per-layer counts and ratios read off the traced rep's world. *)
let counted =
  [ m "sim.engine.events" "count" Lower;
    m "sim.trace.overhead_pct" "%" Lower ]
  @ List.map (fun c -> m ("sim.trace.events." ^ c) "count" Lower) trace_categories
  @ [ m "runtime.soil.polls_requested" "count" Higher;
      m "runtime.soil.polls_completed" "count" Higher;
      m "runtime.soil.polls_dropped" "count" Lower;
      m "runtime.soil.asic_polls" "count" Lower;
      m "runtime.soil.aggregation_ratio" "ratio" Higher;
      m "runtime.soil.pcie_bytes_per_sim_s" "B/sim_s" Lower;
      m "runtime.soil.delivery_sim_ms_p50" "sim_ms" Lower;
      m "runtime.harvester.offered" "count" Higher;
      m "runtime.harvester.received" "count" Higher;
      m "runtime.harvester.stale_dropped" "count" Lower;
      m "runtime.harvester.dup_dropped" "count" Lower;
      m "runtime.harvester.shed" "count" Lower;
      m "runtime.seeder.collector_bytes_per_sim_s" "B/sim_s" Lower;
      m "runtime.seeder.retransmissions" "count" Lower;
      m "runtime.seeder.lost" "count" Lower;
      m "runtime.seeder.migrations" "count" Lower;
      m "runtime.seeder.checkpoints_shipped" "count" Lower;
      m "runtime.seeder.checkpoint_bytes" "B" Lower;
      m "runtime.seeder.heartbeats_sent" "count" Lower;
      m "runtime.seeder.detections" "count" Higher;
      m "runtime.seeder.false_detections" "count" Lower;
      m "runtime.seeder.ms_per_undeploy" "ms" Lower;
      m "gc.alloc_bytes_per_event" "B/event" Lower;
      m "gc.minor_per_sim_s" "1/sim_s" Lower;
      m "gc.major_collections" "count" Lower ]

(* The layer phase: every timed layer, plus the size of the checkpoint
   it encodes. *)
let layer_phase =
  List.concat_map
    (fun t -> [ m (time_name t) t.time_unit Lower; m (bytes_name t) "B" Lower ])
    timed_layers
  @ [ m "runtime.checkpoint.bytes_per_checkpoint" "B" Lower ]

let per_layer = counted @ layer_phase

let find name =
  List.find_opt (fun x -> x.name = name) (end_to_end @ per_layer)

let better_string = function Higher -> "higher" | Lower -> "lower"

(* The [workloads], [end_to_end] and [per_layer] arrays of BENCHMARK.json;
   [workloads] is (name, why) of each workload. *)
let to_json ~workloads =
  let e2e x =
    Json.Obj
      [ ("name", Json.Str x.name); ("unit", Json.Str x.unit);
        ("better", Json.Str (better_string x.better)); ("bound", Json.Num x.bound) ]
  and layer x =
    Json.Obj
      [ ("name", Json.Str x.name); ("unit", Json.Str x.unit);
        ("better", Json.Str (better_string x.better)) ]
  in
  [ ("workloads",
     Json.Arr
       (List.map
          (fun (name, why) ->
            Json.Obj [ ("name", Json.Str name); ("why", Json.Str why) ])
          workloads));
    ("end_to_end", Json.Arr (List.map e2e end_to_end));
    ("per_layer", Json.Arr (List.map layer per_layer)) ]

(* Differences between BENCHMARK.json and [to_json ~workloads]. *)
let check_benchmark_json ~workloads path =
  let ic = open_in_bin path in
  let doc = Json.of_string (really_input_string ic (in_channel_length ic)) in
  close_in ic;
  List.concat_map
    (fun (key, expected) ->
      if Json.member key doc = Some expected then []
      else
        [ Printf.sprintf "%s: %s differs from what farmbench runs and emits"
            path key ])
    (to_json ~workloads)
