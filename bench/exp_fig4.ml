(* Fig. 4: network load towards the central collector vs number of
   monitored ports.  sFlow exports every counter every period (linear,
   steep at 1 ms); Sonata ships windowed per-flow records reduced by its
   75 % aggregation factor; FARM's seeds report only when the heavy-hitter
   set changes (~1 report per affected seed per churn). *)

open Farm
module Engine = Sim.Engine
module Rng = Sim.Rng

let sim_seconds = 10.

(* total switch ports of a fabric *)
let total_ports topo =
  List.fold_left
    (fun acc (n : Net.Topology.node) -> acc + Net.Topology.port_count topo n.id)
    0 (Net.Topology.switches topo)

let make_world ~leaves ~seed =
  let topo = Net.Topology.spine_leaf ~spines:4 ~leaves ~hosts_per_leaf:8 in
  let engine = Engine.create ~seed () in
  let fabric = Net.Fabric.create topo in
  let rng = Rng.split (Engine.rng engine) in
  Net.Traffic.background engine fabric rng
    { Net.Traffic.default_profile with concurrent_flows = 4 * leaves;
      mean_rate = 20_000. };
  (* HH churn: the heavy-hitter set changes once mid-run (once a minute in
     the paper's workload, scaled to the window) *)
  let _ =
    Net.Traffic.heavy_hitter engine fabric rng ~at:(sim_seconds /. 2.)
      ~rate:Bench_common.hh_rate ()
  in
  (topo, engine, fabric, rng)

let sflow_load ~leaves ~period =
  let _, engine, fabric, _ = make_world ~leaves ~seed:2 in
  let t =
    Baselines.Sflow.deploy
      ~config:{ Baselines.Sflow.default_config with poll_period = period }
      engine fabric ~hh_threshold:Bench_common.hh_threshold
  in
  Engine.run ~until:sim_seconds engine;
  let bytes = Baselines.Collector.rx_bytes (Baselines.Sflow.collector t) in
  Baselines.Sflow.shutdown t;
  bytes /. sim_seconds

let sonata_load ~leaves =
  let _, engine, fabric, _ = make_world ~leaves ~seed:2 in
  let t =
    Baselines.Sonata.deploy engine fabric
      ~hh_threshold:Bench_common.hh_threshold
  in
  Engine.run ~until:sim_seconds engine;
  let bytes = Baselines.Sonata.rx_bytes t in
  Baselines.Sonata.shutdown t;
  bytes /. sim_seconds

let farm_load ~leaves =
  let _, engine, fabric, _ = make_world ~leaves ~seed:2 in
  let seeder = Runtime.Seeder.create engine fabric in
  let entry = Tasks.Catalog.find "heavy-hitter" in
  (* the HH threshold sits above aggregated background port rates so only
     genuine heavy hitters (the churn events) produce reports *)
  let override = function
    | "threshold" -> Some (Almanac.Value.Num 1e7)
    | "interval" -> Some (Almanac.Value.Num 1e-3)
    | _ -> None
  in
  let entry =
    { entry with
      Tasks.Task_common.externals =
        List.map
          (fun (m, vs) ->
            ( m,
              List.map
                (fun (k, v) -> (k, Option.value (override k) ~default:v))
                vs ))
          entry.Tasks.Task_common.externals }
  in
  (match Runtime.Seeder.deploy seeder (Tasks.Task_common.to_task_spec entry) with
  | Ok _ -> ()
  | Error m -> failwith ("fig4: FARM deploy failed: " ^ m));
  Engine.run ~until:sim_seconds engine;
  Runtime.Seeder.collector_bytes seeder /. sim_seconds

let run () =
  Bench_common.section
    "Fig. 4: network load towards the collector vs number of ports";
  let leaves_sweep = [ 4; 8; 16; 32; 48 ] in
  let rows =
    Bench_common.psweep leaves_sweep (fun leaves ->
        let topo = Net.Topology.spine_leaf ~spines:4 ~leaves ~hosts_per_leaf:8 in
        let ports = total_ports topo in
        let s1 = sflow_load ~leaves ~period:0.001 in
        let s10 = sflow_load ~leaves ~period:0.01 in
        let so = sonata_load ~leaves in
        let fa = farm_load ~leaves in
        [ string_of_int ports;
          Bench_common.fmt_bytes_rate s1;
          Bench_common.fmt_bytes_rate s10;
          Bench_common.fmt_bytes_rate so;
          Bench_common.fmt_bytes_rate fa;
          Printf.sprintf "%.0fx" (s1 /. Float.max fa 1e-9) ])
  in
  Bench_common.table
    [ "Ports"; "sFlow 1ms"; "sFlow 10ms"; "Sonata"; "FARM";
      "sFlow1ms/FARM" ]
    rows;
  Printf.printf
    "\n(paper: sFlow grows linearly with ports; FARM adds ~1 packet/min per \
     100 ports; savings up to 10000x)\n%!"
