(* Tests for the Table I task catalog: every entry must parse, type-check
   and analyze; the attack-detection tasks are exercised end-to-end with
   the matching synthetic workload. *)

module Catalog = Farm_tasks.Catalog
module Task_common = Farm_tasks.Task_common
module Engine = Farm_sim.Engine
module Rng = Farm_sim.Rng
module Topology = Farm_net.Topology
module Fabric = Farm_net.Fabric
module Traffic = Farm_net.Traffic
module Ipaddr = Farm_net.Ipaddr
module Filter = Farm_net.Filter
module Tcam = Farm_net.Tcam
module Switch_model = Farm_net.Switch_model
module Seeder = Farm_runtime.Seeder
module Soil = Farm_runtime.Soil
module Harvester = Farm_runtime.Harvester
module Value = Farm_almanac.Value

let topo () = Topology.spine_leaf ~spines:2 ~leaves:3 ~hosts_per_leaf:2

let test_catalog_size () =
  Alcotest.(check int) "17 Table I entries" 17 (List.length Catalog.all)

let test_catalog_compiles () =
  List.iter
    (fun (name, result) ->
      match result with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s does not compile: %s" name m)
    (Catalog.compile_all (topo ()))

let test_catalog_pretty_roundtrip () =
  (* every catalog program pretty-prints to source that re-parses to the
     same AST *)
  List.iter
    (fun (e : Task_common.entry) ->
      let p =
        try Farm_almanac.Parser.program e.source
        with Farm_almanac.Parser.Error m ->
          Alcotest.failf "%s: %s" e.name m
      in
      let printed = Farm_almanac.Pretty.program_to_string p in
      match Farm_almanac.Parser.program printed with
      | p' ->
          Alcotest.(check bool)
            (Printf.sprintf "%s round-trips" e.name)
            true
            (Farm_almanac.Ast.strip_pos p = Farm_almanac.Ast.strip_pos p')
      | exception Farm_almanac.Parser.Error m ->
          Alcotest.failf "%s: re-parse failed: %s" e.name m)
    Catalog.all

(* The seed XML every deploy ships, pinned by MD5 over the catalog as the
   writer that printed each attribute with [sprintf] and each escape into
   a fresh buffer wrote it: indented, as [Machine_xml.compile] writes it,
   and flat, re-serialized from the parsed tree. *)
let test_catalog_seed_xml_pinned () =
  let compiled =
    List.map
      (fun (e : Task_common.entry) ->
        Farm_almanac.Machine_xml.compile (Farm_almanac.Parser.program e.source))
      Catalog.all
  in
  let flat =
    List.map
      (fun x ->
        Farm_almanac.Xml.(to_string ~indent:false (parse x)))
      compiled
  in
  let md5 l = Digest.to_hex (Digest.string (String.concat "" l)) in
  Alcotest.(check string) "indented" "48df8926562f1a2b9b1d93cda18d4535"
    (md5 compiled);
  Alcotest.(check string) "flat" "f076188a4b81e45b41d27ad03740770e" (md5 flat)

let test_hhh_inherited_deploys_both_machines () =
  (* the inherited-HHH task ships both the HH base machine and the HHH
     extension: both are instantiated *)
  let entry = Catalog.find "hierarchical-heavy-hitter-inherited" in
  let engine = Engine.create ~seed:21 () in
  let fabric = Fabric.create (topo ()) in
  let seeder = Seeder.create engine fabric in
  let task =
    match Seeder.deploy seeder (Task_common.to_task_spec entry) with
    | Ok t -> t
    | Error m -> Alcotest.failf "deploy failed: %s" m
  in
  let machines =
    List.sort_uniq compare
      (List.map Farm_runtime.Seed_exec.machine_name
         (Seeder.seeds seeder task))
  in
  Alcotest.(check (list string)) "both machines placed" [ "HH"; "HHH" ]
    machines

let test_catalog_loc_reasonable () =
  List.iter
    (fun (e : Task_common.entry) ->
      let loc = Catalog.table1_loc e in
      Alcotest.(check bool)
        (Printf.sprintf "%s has sensible LoC (%d)" e.name loc)
        true
        (loc > 5 && loc < 200))
    Catalog.all;
  (* FloodDefender is the largest, as in the paper *)
  let fd = Catalog.table1_loc (Catalog.find "flood-defender") in
  List.iter
    (fun (e : Task_common.entry) ->
      Alcotest.(check bool) "flood-defender is largest" true
        (Catalog.table1_loc e <= fd))
    Catalog.all;
  (* the inherited HHH delta is much smaller than the standalone HH *)
  let inherited = Catalog.table1_loc (Catalog.find "hierarchical-heavy-hitter-inherited") in
  let hh = Catalog.table1_loc (Catalog.find "heavy-hitter") in
  Alcotest.(check bool)
    (Printf.sprintf "inheritance pays (%d < %d)" inherited hh)
    true (inherited < hh)

(* ------------------------------------------------------------------ *)
(* End-to-end scenarios                                                *)
(* ------------------------------------------------------------------ *)

let deploy_world ?(seed = 3) entry =
  let engine = Engine.create ~seed () in
  let fabric = Fabric.create (topo ()) in
  let seeder = Seeder.create engine fabric in
  let task =
    match Seeder.deploy seeder (Task_common.to_task_spec entry) with
    | Ok t -> t
    | Error m -> Alcotest.failf "deploy %s failed: %s" entry.name m
  in
  (engine, fabric, seeder, task)

let rng_of engine = Rng.split (Engine.rng engine)

let any_rule_with seeder pred =
  List.exists
    (fun soil ->
      List.exists pred
        (Tcam.rules (Switch_model.tcam (Soil.switch soil)) Tcam.Monitoring))
    (Seeder.soils seeder)

let test_hh_end_to_end () =
  let entry = Catalog.find "heavy-hitter" in
  let engine, fabric, seeder, task = deploy_world entry in
  let rng = rng_of engine in
  (* light background + a 10 MB/s elephant from t=2 *)
  Traffic.background engine fabric rng
    { Traffic.default_profile with concurrent_flows = 20; mean_rate = 10_000. };
  let _hh = Traffic.heavy_hitter engine fabric rng ~at:2. ~rate:1e7 () in
  Engine.run ~until:4. engine;
  let h = Seeder.harvester task in
  Alcotest.(check bool) "hitters reported" true
    (Harvester.received_count h >= 1);
  (* reports arrive only after the elephant starts *)
  (match List.rev (Harvester.received h) with
  | (t0, _, Value.List _) :: _ ->
      Alcotest.(check bool) "first report after onset" true (t0 >= 2.)
  | _ -> Alcotest.fail "expected a hitters list");
  Alcotest.(check bool) "QoS reaction installed" true
    (any_rule_with seeder (fun r -> r.rule.action = Tcam.Set_qos 1))

let test_syn_flood_end_to_end () =
  let entry = Catalog.find "tcp-syn-flood" in
  let engine, fabric, seeder, task = deploy_world entry in
  let rng = rng_of engine in
  let victim = Ipaddr.of_string "10.2.1.9" in
  Traffic.syn_flood engine fabric rng ~at:1. ~duration:6. ~victim
    ~rate_per_source:200_000. ~sources:30;
  Engine.run ~until:4. engine;
  let h = Seeder.harvester task in
  Alcotest.(check bool) "victim reported" true
    (List.exists
       (fun (_, _, v) ->
         match v with
         | Value.Str s -> s = Ipaddr.to_string victim
         | _ -> false)
       (Harvester.received h));
  Alcotest.(check bool) "rate limit installed" true
    (any_rule_with seeder (fun r ->
         match r.rule.action with Tcam.Rate_limit _ -> true | _ -> false))

let test_superspreader_end_to_end () =
  let entry = Catalog.find "superspreader" in
  let engine, fabric, seeder, task = deploy_world entry in
  let rng = rng_of engine in
  Traffic.superspreader engine fabric rng ~at:1. ~duration:5. ~fanout:60;
  Engine.run ~until:5. engine;
  Alcotest.(check bool) "spreader reported" true
    (Harvester.received_count (Seeder.harvester task) >= 1);
  Alcotest.(check bool) "spreader throttled" true
    (any_rule_with seeder (fun r ->
         match r.rule.action with Tcam.Rate_limit _ -> true | _ -> false))

let test_port_scan_end_to_end () =
  let entry = Catalog.find "port-scan" in
  let engine, fabric, seeder, task = deploy_world entry in
  let rng = rng_of engine in
  let victim = Ipaddr.of_string "10.3.1.4" in
  Traffic.port_scan engine fabric rng ~at:1. ~duration:5. ~victim ~ports:50;
  Engine.run ~until:5. engine;
  Alcotest.(check bool) "scanner reported" true
    (Harvester.received_count (Seeder.harvester task) >= 1);
  Alcotest.(check bool) "scanner dropped" true
    (any_rule_with seeder (fun r -> r.rule.action = Tcam.Drop))

let test_dns_reflection_end_to_end () =
  let entry = Catalog.find "dns-reflection" in
  let engine, fabric, _seeder, task = deploy_world entry in
  let rng = rng_of engine in
  let victim = Ipaddr.of_string "10.1.2.5" in
  Traffic.dns_reflection engine fabric rng ~at:1. ~duration:5. ~victim
    ~reflectors:20 ~rate_per_reflector:500_000.;
  Engine.run ~until:5. engine;
  Alcotest.(check bool) "victim reported" true
    (List.exists
       (fun (_, _, v) ->
         match v with
         | Value.Str s -> s = Ipaddr.to_string victim
         | _ -> false)
       (Harvester.received (Seeder.harvester task)))

let test_ssh_brute_force_end_to_end () =
  let entry = Catalog.find "ssh-brute-force" in
  let engine, fabric, _seeder, task = deploy_world entry in
  let rng = rng_of engine in
  let victim = Ipaddr.of_string "10.2.2.8" in
  Traffic.ssh_brute_force engine fabric rng ~at:1. ~duration:6. ~victim
    ~attempts_per_sec:40.;
  Engine.run ~until:6. engine;
  Alcotest.(check bool) "attacker reported" true
    (Harvester.received_count (Seeder.harvester task) >= 1)

let test_slowloris_end_to_end () =
  let entry = Catalog.find "slowloris" in
  let engine, fabric, _seeder, task = deploy_world entry in
  let rng = rng_of engine in
  let victim = Ipaddr.of_string "10.1.1.3" in
  Traffic.slowloris engine fabric rng ~at:1. ~duration:8. ~victim
    ~connections:60;
  Engine.run ~until:8. engine;
  Alcotest.(check bool) "slowloris reported" true
    (Harvester.received_count (Seeder.harvester task) >= 1)

let test_ddos_end_to_end () =
  let entry = Catalog.find "ddos" in
  let engine, fabric, seeder, task = deploy_world entry in
  let rng = rng_of engine in
  (* the protected prefix is 10.2.0.0/16 (leaf1's hosts) *)
  let victim = Ipaddr.of_string "10.2.1.44" in
  Traffic.syn_flood engine fabric rng ~at:1. ~duration:6. ~victim
    ~rate_per_source:100_000. ~sources:120;
  Engine.run ~until:4. engine;
  Alcotest.(check bool) "flood reported" true
    (Harvester.received_count (Seeder.harvester task) >= 1);
  Alcotest.(check bool) "protected prefix quenched" true
    (any_rule_with seeder (fun r -> r.rule.action = Tcam.Drop));
  (* the drop rule actually reduces traffic at the mitigating switch *)
  ignore fabric

let test_link_failure_end_to_end () =
  let entry = Catalog.find "link-failure" in
  let engine, fabric, seeder, task = deploy_world entry in
  (* a steady flow that dies at t=2: its egress ports stall *)
  let tuple =
    { Farm_net.Flow.src = Ipaddr.of_string "10.1.1.7";
      dst = Ipaddr.of_string "10.3.1.7"; sport = 99; dport = 99;
      proto = Farm_net.Flow.Tcp }
  in
  let id = Option.get (Fabric.start_flow fabric ~time:0. ~tuple ~rate:1e6 ()) in
  Engine.schedule engine ~delay:2. (fun engine ->
      Fabric.stop_flow fabric ~time:(Engine.now engine) id);
  Engine.run ~until:4. engine;
  ignore seeder;
  let h = Seeder.harvester task in
  Alcotest.(check bool) "failure reported" true
    (Harvester.received_count h >= 1);
  (* reported only after the flow stops *)
  match List.rev (Harvester.received h) with
  | (t0, _, _) :: _ -> Alcotest.(check bool) "after stall" true (t0 >= 2.)
  | [] -> Alcotest.fail "no report"

let test_traffic_change_end_to_end () =
  let entry = Catalog.find "traffic-change" in
  let engine, fabric, seeder, task = deploy_world entry in
  ignore seeder;
  (* steady 100 kB/s, then a 40x surge at t=5 *)
  let tuple =
    { Farm_net.Flow.src = Ipaddr.of_string "10.1.1.7";
      dst = Ipaddr.of_string "10.3.1.7"; sport = 5; dport = 5;
      proto = Farm_net.Flow.Udp }
  in
  let _ = Fabric.start_flow fabric ~time:0. ~tuple ~rate:100_000. () in
  Engine.schedule engine ~delay:5. (fun engine ->
      let tuple2 = { tuple with sport = 6 } in
      ignore
        (Fabric.start_flow fabric ~time:(Engine.now engine) ~tuple:tuple2
           ~rate:4e6 ()));
  Engine.run ~until:8. engine;
  let h = Seeder.harvester task in
  Alcotest.(check bool) "change reported" true (Harvester.received_count h >= 1);
  match List.rev (Harvester.received h) with
  | (t0, _, _) :: _ ->
      Alcotest.(check bool) "reported after the surge" true (t0 >= 5.)
  | [] -> Alcotest.fail "no report"

let test_flow_size_distribution_reports () =
  let entry = Catalog.find "flow-size-distribution" in
  let engine, fabric, seeder, task = deploy_world entry in
  ignore seeder;
  let rng = rng_of engine in
  Traffic.background engine fabric rng
    { Traffic.default_profile with concurrent_flows = 30 };
  Engine.run ~until:5. engine;
  let h = Seeder.harvester task in
  Alcotest.(check bool) "histograms streamed" true
    (Harvester.received_count h >= 2);
  match Harvester.received h with
  | (_, _, Value.List buckets) :: _ ->
      Alcotest.(check int) "4 buckets" 4 (List.length buckets)
  | _ -> Alcotest.fail "expected histogram lists"

let test_entropy_reports () =
  let entry = Catalog.find "entropy-estimation" in
  let engine, fabric, seeder, task = deploy_world entry in
  ignore seeder;
  let rng = rng_of engine in
  Traffic.background engine fabric rng
    { Traffic.default_profile with concurrent_flows = 30 };
  Engine.run ~until:4. engine;
  let h = Seeder.harvester task in
  Alcotest.(check bool) "entropy streamed" true (Harvester.received_count h >= 1);
  List.iter
    (fun (_, _, v) ->
      match v with
      | Value.Num e ->
          Alcotest.(check bool) "entropy non-negative" true (e >= 0.)
      | _ -> Alcotest.fail "expected numbers")
    (Harvester.received h)

let test_flood_defender_lifecycle () =
  let entry = Catalog.find "flood-defender" in
  let engine, fabric, seeder, task = deploy_world entry in
  let rng = rng_of engine in
  let victim = Ipaddr.of_string "10.2.1.9" in
  Traffic.syn_flood engine fabric rng ~at:1. ~duration:3. ~victim
    ~rate_per_source:300_000. ~sources:50;
  Engine.run ~until:3. engine;
  (* during the attack at least one seed is defending/monitoring *)
  let states =
    List.map Farm_runtime.Seed_exec.state (Seeder.seeds seeder task)
  in
  Alcotest.(check bool) "some seed left observe" true
    (List.exists (fun s -> s <> "observe") states);
  Alcotest.(check bool) "attackers reported" true
    (Harvester.received_count (Seeder.harvester task) >= 1);
  (* after the flood ends, seeds recover to observe and clean their rules *)
  Engine.run ~until:12. engine;
  let states =
    List.map Farm_runtime.Seed_exec.state (Seeder.seeds seeder task)
  in
  Alcotest.(check bool) "all seeds recovered" true
    (List.for_all (fun s -> s = "observe") states);
  Alcotest.(check bool) "recovery reported" true
    (List.exists
       (fun (_, _, v) -> v = Value.Str "recovered")
       (Harvester.received (Seeder.harvester task)))

let test_ml_task_burns_cpu () =
  let entry = Farm_tasks.Infra_tasks.ml_task ~iterations:10 ~accuracy:0.01 in
  let engine, fabric, seeder, task = deploy_world entry in
  ignore fabric;
  ignore task;
  Engine.run ~until:2. engine;
  (* each seed polls at 100 Hz and burns 700 us per activation *)
  let total_busy =
    List.fold_left
      (fun acc soil -> acc +. Farm_runtime.Cpu_model.busy_seconds (Soil.cpu soil))
      0. (Seeder.soils seeder)
  in
  Alcotest.(check bool)
    (Printf.sprintf "ML work accounted (%.3fs busy)" total_busy)
    true (total_busy > 0.5)

let test_multiple_tasks_coexist () =
  (* the core FARM claim: several tasks share the fabric, polls aggregate *)
  let engine = Engine.create ~seed:5 () in
  let fabric = Fabric.create (topo ()) in
  let seeder = Seeder.create engine fabric in
  let deploy name =
    match Seeder.deploy seeder (Task_common.to_task_spec (Catalog.find name)) with
    | Ok t -> t
    | Error m -> Alcotest.failf "deploy %s failed: %s" name m
  in
  let _hh = deploy "heavy-hitter" in
  let _tc = deploy "traffic-change" in
  let _lf = deploy "link-failure" in
  let rng = rng_of engine in
  Traffic.background engine fabric rng
    { Traffic.default_profile with concurrent_flows = 20 };
  Engine.run ~until:2. engine;
  (* all three tasks poll [port ANY]: aggregation means each soil issues
     one ASIC poll stream, not three *)
  List.iter
    (fun soil ->
      let stats = Soil.poll_stats soil in
      Alcotest.(check bool) "deliveries exceed ASIC polls (sharing)" true
        (stats.completed > stats.asic_polls))
    (Seeder.soils seeder)

let () =
  Alcotest.run "farm_tasks"
    [ ( "catalog",
        [ Alcotest.test_case "size" `Quick test_catalog_size;
          Alcotest.test_case "all compile" `Quick test_catalog_compiles;
          Alcotest.test_case "seed XML bytes pinned" `Quick
            test_catalog_seed_xml_pinned;
          Alcotest.test_case "pretty round-trip" `Quick
            test_catalog_pretty_roundtrip;
          Alcotest.test_case "inherited HHH deploys both" `Quick
            test_hhh_inherited_deploys_both_machines;
          Alcotest.test_case "LoC sane" `Quick test_catalog_loc_reasonable ] );
      ( "end-to-end",
        [ Alcotest.test_case "heavy hitter" `Quick test_hh_end_to_end;
          Alcotest.test_case "syn flood" `Quick test_syn_flood_end_to_end;
          Alcotest.test_case "superspreader" `Quick
            test_superspreader_end_to_end;
          Alcotest.test_case "port scan" `Quick test_port_scan_end_to_end;
          Alcotest.test_case "dns reflection" `Quick
            test_dns_reflection_end_to_end;
          Alcotest.test_case "ssh brute force" `Quick
            test_ssh_brute_force_end_to_end;
          Alcotest.test_case "slowloris" `Quick test_slowloris_end_to_end;
          Alcotest.test_case "ddos" `Quick test_ddos_end_to_end;
          Alcotest.test_case "link failure" `Quick
            test_link_failure_end_to_end;
          Alcotest.test_case "traffic change" `Quick
            test_traffic_change_end_to_end;
          Alcotest.test_case "flow size distribution" `Quick
            test_flow_size_distribution_reports;
          Alcotest.test_case "entropy" `Quick test_entropy_reports;
          Alcotest.test_case "flood defender lifecycle" `Quick
            test_flood_defender_lifecycle;
          Alcotest.test_case "ml task cpu" `Quick test_ml_task_burns_cpu;
          Alcotest.test_case "multi-task aggregation" `Quick
            test_multiple_tasks_coexist ] ) ]
