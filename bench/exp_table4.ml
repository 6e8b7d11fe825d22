(* Tab. 4: time to recognize a heavy hitter — FARM vs the specialized
   (Planck, Helios) and generic (sFlow, Sonata) systems.  Each system runs
   the same scenario (background traffic, elephant flow onset) on the same
   20-switch fabric; the detection pipeline delays are what differ. *)

open Farm
module Engine = Sim.Engine

let trials = 5

(* FARM: deploy the catalog HH task; detection is the seed's local state
   transition, observed at the harvester one control-latency later. *)
let farm_detect ~seed =
  let topo = Bench_common.paper_topology () in
  let w = Bench_common.hh_scenario ~seed topo in
  let seeder = Runtime.Seeder.create w.engine w.fabric in
  let entry = Tasks.Catalog.find "heavy-hitter" in
  let entry =
    { entry with
      externals =
        [ ("HH",
           [ ("threshold", Almanac.Value.Num Bench_common.hh_threshold);
             ("interval", Almanac.Value.Num 1e-3);
             ("hitterAction", Almanac.Value.Action (Net.Tcam.Set_qos 1)) ])
        ] }
  in
  let task =
    match Runtime.Seeder.deploy seeder (Tasks.Task_common.to_task_spec entry) with
    | Ok t -> t
    | Error m -> failwith ("table4: FARM deploy failed: " ^ m)
  in
  Engine.run ~until:(w.onset +. 2.) w.engine;
  let reports =
    List.rev (Runtime.Harvester.received (Runtime.Seeder.harvester task))
  in
  match List.find_opt (fun (t, _, _) -> t >= w.onset) reports with
  | Some (t, _, _) ->
      (* subtract the report's network latency: recognition is local *)
      Some (t -. Runtime.Control.latency -. w.onset)
  | None -> None

let baseline_detect ~seed deploy detect_after shutdown =
  let topo = Bench_common.paper_topology () in
  let w = Bench_common.hh_scenario ~seed topo in
  let t = deploy w.engine w.fabric in
  Engine.run ~until:(w.onset +. 10.) w.engine;
  let result =
    match detect_after t w.onset with
    | Some (d, _, _) -> Some (d -. w.onset)
    | None -> None
  in
  shutdown t;
  result

let sflow_detect ~seed ~period =
  baseline_detect ~seed
    (fun engine fabric ->
      Baselines.Sflow.deploy
        ~config:{ Baselines.Sflow.default_config with poll_period = period }
        engine fabric ~hh_threshold:Bench_common.hh_threshold)
    (fun t onset ->
      Baselines.Collector.first_detection_after (Baselines.Sflow.collector t)
        onset)
    Baselines.Sflow.shutdown

let sonata_detect ~seed =
  baseline_detect ~seed
    (fun engine fabric ->
      Baselines.Sonata.deploy engine fabric
        ~hh_threshold:Bench_common.hh_threshold)
    Baselines.Sonata.first_detection_after Baselines.Sonata.shutdown

let planck_detect ~seed =
  baseline_detect ~seed
    (fun engine fabric ->
      Baselines.Planck.deploy engine fabric
        ~hh_threshold:Bench_common.hh_threshold)
    Baselines.Planck.first_detection_after Baselines.Planck.shutdown

let helios_detect ~seed =
  baseline_detect ~seed
    (fun engine fabric ->
      Baselines.Helios.deploy engine fabric
        ~hh_threshold:Bench_common.hh_threshold)
    Baselines.Helios.first_detection_after Baselines.Helios.shutdown

let avg detect =
  let ds =
    List.filter_map (fun seed -> detect ~seed) (List.init trials (fun i -> i + 1))
  in
  if ds = [] then None else Some (Bench_common.mean ds)

let run () =
  Bench_common.section
    "Tab. 4: heavy-hitter detection time (mean over trials)";
  let results =
    [ ("FARM", "G", avg farm_detect, "1 ms");
      ("Planck", "S", avg planck_detect, "4 ms");
      ("Helios", "S", avg helios_detect, "77 ms");
      ("sFlow (100 ms)", "G", avg (sflow_detect ~period:0.1), "100 ms");
      ("Sonata", "G", avg sonata_detect, "3427 ms") ]
  in
  let farm_time =
    match results with (_, _, Some t, _) :: _ -> t | _ -> nan
  in
  Bench_common.table
    [ "System"; "Type"; "Detect time"; "Paper"; "vs FARM" ]
    (List.map
       (fun (name, ty, time, paper) ->
         match time with
         | Some t ->
             [ name; ty; Bench_common.fmt_time t; paper;
               Printf.sprintf "%.0fx" (t /. farm_time) ]
         | None -> [ name; ty; "no detection"; paper; "-" ])
       results)
