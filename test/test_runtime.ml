(* Tests for the FARM runtime: CPU/IPC models, soil (aggregation, PCIe
   bottleneck, TCAM mediation), seed execution and the seeder's end-to-end
   deploy -> poll -> detect -> react -> harvest pipeline, plus migration. *)

open Farm_runtime
module Engine = Farm_sim.Engine
module Rng = Farm_sim.Rng
module Topology = Farm_net.Topology
module Fabric = Farm_net.Fabric
module Filter = Farm_net.Filter
module Flow = Farm_net.Flow
module Tcam = Farm_net.Tcam
module Switch_model = Farm_net.Switch_model
module Value = Farm_almanac.Value
module Typecheck = Farm_almanac.Typecheck

(* ------------------------------------------------------------------ *)
(* Cpu_model / Ipc                                                     *)
(* ------------------------------------------------------------------ *)

let test_cpu_model_accounting () =
  let u = Cpu_model.usage () in
  Cpu_model.charge u 2.;
  Cpu_model.charge u 6.;
  Alcotest.(check (float 1e-9)) "busy" 8. (Cpu_model.busy_seconds u);
  Alcotest.(check (float 1e-9)) "offered load 800%" 8.
    (Cpu_model.offered_load u ~window:1.);
  let m = Cpu_model.default in
  Alcotest.(check (float 1e-9)) "achieved capped at cores" m.cores
    (Cpu_model.achieved_load m u ~window:1.);
  Alcotest.(check (float 1e-9)) "accuracy = cores/offered" (m.cores /. 8.)
    (Cpu_model.accuracy m u ~window:1.);
  Cpu_model.charge u (-7.9);
  ignore (Cpu_model.accuracy m u ~window:1.)

let test_ipc_latency_shape () =
  (* gRPC grows fast with seed count; shared buffer stays nearly flat
     (Fig. 10) *)
  let g10 = Ipc.latency Ipc.Grpc Ipc.Threads ~seeds:10 in
  let g150 = Ipc.latency Ipc.Grpc Ipc.Threads ~seeds:150 in
  let s10 = Ipc.latency Ipc.Shared_buffer Ipc.Threads ~seeds:10 in
  let s150 = Ipc.latency Ipc.Shared_buffer Ipc.Threads ~seeds:150 in
  Alcotest.(check bool) "gRPC grows" true (g150 > g10 *. 2.);
  Alcotest.(check bool) "shared buffer nearly flat" true
    (s150 < s10 *. 3.);
  Alcotest.(check bool) "shared buffer much faster" true (s150 *. 20. < g150);
  (* processes cost more than threads on both schemes *)
  Alcotest.(check bool) "processes slower (gRPC)" true
    (Ipc.latency Ipc.Grpc Ipc.Processes ~seeds:50
    > Ipc.latency Ipc.Grpc Ipc.Threads ~seeds:50);
  Alcotest.(check bool) "processes slower (shm)" true
    (Ipc.latency Ipc.Shared_buffer Ipc.Processes ~seeds:50
    > Ipc.latency Ipc.Shared_buffer Ipc.Threads ~seeds:50)

(* ------------------------------------------------------------------ *)
(* Soil                                                                *)
(* ------------------------------------------------------------------ *)

let make_soil ?config () =
  let engine = Engine.create () in
  let sw = Switch_model.create ~id:0 ~ports:8 () in
  let soil = Soil.create ?config engine sw in
  (engine, sw, soil)

let test_soil_poll_delivery () =
  let engine, sw, soil = make_soil () in
  Switch_model.add_flow sw ~time:0. ~flow_id:1
    ~tuple:{ Flow.src = Farm_net.Ipaddr.of_int 1;
             dst = Farm_net.Ipaddr.of_int 2; sport = 1; dport = 80;
             proto = Flow.Tcp }
    ~rate:1000. ~egress:3 ();
  let deliveries = ref [] in
  let _sub =
    Soil.subscribe_poll soil ~seed_id:0 ~subject:Filter.All_ports ~period:0.1
      (fun data -> deliveries := data :: !deliveries)
  in
  Engine.run ~until:1.05 engine;
  Alcotest.(check bool) "about 10 deliveries" true
    (List.length !deliveries >= 9 && List.length !deliveries <= 11);
  (* latest delivery sees accumulated bytes on port 3 *)
  (match !deliveries with
  | last :: _ ->
      Alcotest.(check bool) "port 3 counted" true (last.(3) > 800.)
  | [] -> Alcotest.fail "no deliveries")

let test_soil_aggregation_saves_asic_polls () =
  (* two seeds polling the same subject: aggregated = one ASIC poll stream
     at the fastest rate *)
  let run aggregate =
    let config = { Soil.default_config with aggregate_polls = aggregate } in
    let engine, _sw, soil = make_soil ~config () in
    let _s1 =
      Soil.subscribe_poll soil ~seed_id:1 ~subject:Filter.All_ports
        ~period:0.01 (fun _ -> ())
    in
    let _s2 =
      Soil.subscribe_poll soil ~seed_id:2 ~subject:Filter.All_ports
        ~period:0.01 (fun _ -> ())
    in
    Engine.run ~until:1. engine;
    (Soil.poll_stats soil).asic_polls
  in
  let agg = run true and non_agg = run false in
  Alcotest.(check bool)
    (Printf.sprintf "aggregation halves ASIC polls (%d vs %d)" agg non_agg)
    true
    (float_of_int agg < 0.6 *. float_of_int non_agg)

let test_soil_aggregated_rate_is_fastest () =
  let engine, _sw, soil = make_soil () in
  let fast = ref 0 and slow = ref 0 in
  let _s1 =
    Soil.subscribe_poll soil ~seed_id:1 ~subject:Filter.All_ports
      ~period:0.01 (fun _ -> incr fast)
  in
  let _s2 =
    Soil.subscribe_poll soil ~seed_id:2 ~subject:Filter.All_ports
      ~period:0.1 (fun _ -> incr slow)
  in
  Engine.run ~until:1. engine;
  (* both are served at the fast seed's rate: the slow seed sees at least
     its requested accuracy *)
  Alcotest.(check bool) "fast seed ~100 polls" true (!fast >= 95);
  Alcotest.(check bool) "slow seed served at aggregate rate" true
    (!slow >= 95)

let test_soil_pcie_saturation () =
  (* Demand far beyond the 8 Mbit/s polling budget: polls are dropped and
     completions cap at the bus capacity (Fig. 8). *)
  let engine, _sw, soil = make_soil () in
  (* a 64 B counter read is 512 bits; the 8 Mbit/s budget sustains
     ~15625 polls/s.  Ask for 20 seeds x 5000 polls/s = 51 Mbit/s. *)
  for i = 1 to 20 do
    ignore
      (Soil.subscribe_poll soil ~seed_id:i
         ~subject:(Filter.Port_counter i) ~period:0.0002 (fun _ -> ()))
  done;
  Engine.run ~until:2. engine;
  let stats = Soil.poll_stats soil in
  Alcotest.(check bool) "drops occurred" true (stats.dropped > 0);
  (* completed transfer volume stays within bus capacity *)
  let achieved_bps = stats.pcie_bytes *. 8. /. 2. in
  Alcotest.(check bool)
    (Printf.sprintf "achieved %.0f <= capacity" achieved_bps)
    true
    (achieved_bps <= 8.1e6)

let test_soil_probe_sampling () =
  let engine, sw, soil = make_soil () in
  Switch_model.add_flow sw ~time:0. ~flow_id:1
    ~tuple:{ Flow.src = Farm_net.Ipaddr.of_int 1;
             dst = Farm_net.Ipaddr.of_int 2; sport = 5; dport = 443;
             proto = Flow.Tcp }
    ~rate:1e6 ~egress:0 ();
  let got = ref 0 in
  let _sub =
    Soil.subscribe_probe soil ~seed_id:0
      ~filter:(Filter.atom (Filter.Dst_port 443)) ~period:0.01 (fun pkt ->
        Alcotest.(check int) "filtered packets only" 443 pkt.tuple.dport;
        incr got)
  in
  Engine.run ~until:1. engine;
  Alcotest.(check bool) "packets sampled" true (!got > 50)

let test_soil_tcam_mediation () =
  let engine, sw, soil = make_soil () in
  ignore engine;
  let pattern = Filter.atom (Filter.Dst_port 80) in
  (match Soil.add_tcam_rule soil { pattern; action = Tcam.Drop; priority = 5 } with
  | Ok () -> ()
  | Error `Full -> Alcotest.fail "rule must fit");
  (* rule landed in the monitoring region only *)
  Alcotest.(check int) "monitoring region used" 1
    (Tcam.region_used (Switch_model.tcam sw) Tcam.Monitoring);
  Alcotest.(check int) "forwarding region untouched" 0
    (Tcam.region_used (Switch_model.tcam sw) Tcam.Forwarding);
  Alcotest.(check bool) "lookup finds it" true
    (Soil.get_tcam_rule soil ~pattern <> None);
  Alcotest.(check int) "removed" 1 (Soil.remove_tcam_rule soil ~pattern)

(* ------------------------------------------------------------------ *)
(* End-to-end deployment                                               *)
(* ------------------------------------------------------------------ *)

(* A watchdog task: polls all port counters; when the total byte count
   exceeds [limit] it reports to the harvester, installs a local drop rule
   for port 80, and moves to a quenched state. *)
let watchdog_source =
  {|
machine Watchdog {
  place all;
  poll counters = Poll { .ival = 0.01, .what = port ANY };
  external long limit = 1000000;
  state observe {
    when (counters as stats) do {
      if (stats_sum(stats) >= limit) then {
        transit alerting;
      }
    }
  }
  state alerting {
    when (enter) do {
      send stats_to_report() to harvester;
      addTCAMRule(mkRule(dstPort 80, drop_action()));
      transit quenched;
    }
  }
  state quenched {
  }
}
|}

let watchdog_sigs =
  [ ("stats_to_report", { Typecheck.args = []; ret = Typecheck.Numeric }) ]

let watchdog_builtins = [ ("stats_to_report", fun _ -> Value.Num 42.) ]

let watchdog_spec ?limit () =
  { (Seeder.simple_spec ~name:"watchdog" ~source:watchdog_source) with
    Seeder.ts_extra_sigs = watchdog_sigs;
    ts_builtins = watchdog_builtins;
    ts_externals =
      Option.to_list
        (Option.map (fun l -> ("Watchdog", [ ("limit", Value.Num l) ])) limit) }

let make_world () =
  let engine = Engine.create ~seed:11 () in
  let topo = Topology.spine_leaf ~spines:2 ~leaves:2 ~hosts_per_leaf:1 in
  let fabric = Fabric.create topo in
  let seeder = Seeder.create engine fabric in
  (engine, topo, fabric, seeder)

(* the polls of a program's first machine *)
let first_polls (program : Farm_almanac.Ast.program) =
  match Farm_almanac.Analysis.polls (List.hd program.machines) with
  | Ok p -> p
  | Error m -> Alcotest.fail m

let deployed seeder spec =
  match Seeder.deploy seeder spec with
  | Ok t -> t
  | Error m -> Alcotest.failf "deploy failed: %s" m

let test_seeder_deploy_and_detect () =
  let engine, topo, fabric, seeder = make_world () in
  let task = deployed seeder (watchdog_spec ~limit:50_000. ()) in
  Alcotest.(check bool) "placed" true (Seeder.is_placed task);
  (* place all: one seed per switch *)
  Alcotest.(check int) "one seed per switch"
    (List.length (Topology.switches topo))
    (List.length (Seeder.seeds seeder task));
  (* a 100 kB/s flow crosses the 50 kB total within ~0.5 s on its path *)
  let tuple =
    { Flow.src = Farm_net.Ipaddr.of_string "10.1.1.10";
      dst = Farm_net.Ipaddr.of_string "10.2.1.10"; sport = 1234; dport = 80;
      proto = Flow.Tcp }
  in
  let _ = Fabric.start_flow fabric ~time:0. ~tuple ~rate:100_000. () in
  Engine.run ~until:2. engine;
  let h = Seeder.harvester task in
  Alcotest.(check bool) "harvester got alerts" true
    (Harvester.received_count h >= 1);
  (* alert payload comes from the task builtin *)
  (match Harvester.received h with
  | (_, _, Value.Num v) :: _ -> Alcotest.(check (float 0.)) "payload" 42. v
  | _ -> Alcotest.fail "expected a numeric alert");
  (* local reaction: drop rule installed on the path switches *)
  let rule_somewhere =
    List.exists
      (fun soil ->
        Soil.get_tcam_rule soil ~pattern:(Filter.atom (Filter.Dst_port 80))
        <> None)
      (Seeder.soils seeder)
  in
  Alcotest.(check bool) "drop rule installed locally" true rule_somewhere;
  (* seeds on the flow's path are quenched *)
  let quenched =
    List.filter (fun s -> Seed_exec.state s = "quenched")
      (Seeder.seeds seeder task)
  in
  Alcotest.(check bool) "path seeds quenched" true (List.length quenched >= 3)

let test_seeder_harvester_feedback () =
  (* the harvester reconfigures seeds at runtime via recv *)
  let source =
    {|
machine Adj {
  place all;
  external long threshold = 10;
  state s {
    when (recv long t from harvester) do { threshold = t; }
  }
}
|}
  in
  let engine, _, _, seeder = make_world () in
  let sent = ref false in
  let harvester_spec =
    { Harvester.on_start =
        (fun ctx ->
          sent := true;
          ctx.broadcast (Value.Num 77.));
      on_message = (fun _ ~from_switch:_ _ -> ()) }
  in
  let spec =
    { (Seeder.simple_spec ~name:"adj" ~source) with
      Seeder.ts_harvester = harvester_spec }
  in
  let task = deployed seeder spec in
  Engine.run ~until:0.1 engine;
  Alcotest.(check bool) "harvester started" true !sent;
  List.iter
    (fun s ->
      match Seed_exec.var s "threshold" with
      | Some (Value.Num v) ->
          Alcotest.(check (float 0.)) "threshold pushed to all seeds" 77. v
      | _ -> Alcotest.fail "threshold unbound")
    (Seeder.seeds seeder task)

(* -- per-task seed lists vs the registry (qcheck) ------------------- *)

(* Each task keeps its seeds in seed-id order.  Random deploy, undeploy
   and refused deploy sequences (a task needing more vCPU than a switch
   has cannot be placed) must leave every task's [seed_specs], [seeds],
   [seed_on] and broadcast order equal to the sorted registry, seen
   through [placement_instance], filtered to the task; soils and the
   instance's switches in node order; and no harvester gauge of a
   refused task. *)
module Model = Farm_placement.Model

type seed_list_op = Deploy of float * int | Undeploy of int

let seed_list_source ~cpu ~machines =
  String.concat "\n"
    (List.init machines (fun i ->
         Printf.sprintf
           {|machine M%d {
  place all;
  long seq = 0;
  state s {
    util (res) {
      if (res.vCPU >= %g) then { return min(10 * res.vCPU, 10); }
    }
    when (recv long v from harvester) do { seq = tick(); }
  }
}|}
           i cpu))

let prop_task_seed_lists =
  let op =
    QCheck2.Gen.(
      frequency
        [ (3, map2 (fun c m -> Deploy (c, m))
                 (oneofl [ 0.2; 0.5; 1.; 64. ]) (int_range 1 2));
          (2, map (fun i -> Undeploy i) (int_bound 3)) ])
  in
  let print_op = function
    | Deploy (c, m) -> Printf.sprintf "Deploy (%g, %d)" c m
    | Undeploy i -> Printf.sprintf "Undeploy %d" i
  in
  QCheck2.Test.make ~name:"per-task seed lists = registry filter" ~count:30
    ~print:QCheck2.Print.(list print_op)
    QCheck2.Gen.(list_size (int_range 1 10) op)
    (fun ops ->
      let engine, _, _, seeder = make_world () in
      let ticks = ref 0. in
      let registered () =
        (Seeder.placement_instance seeder).seeds
      in
      (* live tasks: (task, task id, harvester ctx) *)
      let live = ref [] and gone = ref [] in
      (* every deploy passes the front end, so each takes the next task id *)
      let next_tid = ref 0 in
      let ascending l = List.sort_uniq Int.compare l = l in
      let settle () = Engine.run ~until:(Engine.now engine +. 0.02) engine in
      let check_task (task, tid, ctx) =
        let expected =
          List.filter (fun (s : Model.seed_spec) -> s.task_id = tid)
            (registered ())
        in
        let assigned = Seeder.current_assignments seeder in
        let running =
          List.filter_map
            (fun (s : Model.seed_spec) ->
              if List.exists (fun (a : Model.assignment) -> a.a_seed = s.seed_id)
                   assigned
              then Some s.seed_id
              else None)
            expected
        in
        let execs = Seeder.seeds seeder task in
        let ids = List.map Seed_exec.seed_id in
        let seed_on_ok =
          List.for_all
            (fun e ->
              let first =
                List.find
                  (fun e' ->
                    Seed_exec.machine_name e' = Seed_exec.machine_name e
                    && Seed_exec.node e' = Seed_exec.node e)
                  execs
              in
              match
                Seeder.seed_on seeder task ~machine:(Seed_exec.machine_name e)
                  ~node:(Seed_exec.node e)
              with
              | Some e' -> e' == first
              | None -> false)
            execs
        in
        (* broadcast: each seed stamps the order it received it in *)
        ctx.Harvester.broadcast (Value.Num 1.);
        settle ();
        let stamp e =
          match Seed_exec.var e "seq" with Some (Value.Num n) -> n | _ -> -1.
        in
        let by_arrival =
          List.stable_sort (fun a b -> Float.compare (stamp a) (stamp b)) execs
        in
        Seeder.seed_specs seeder task = expected
        && ids execs = running
        && seed_on_ok
        && ids by_arrival = running
      in
      let step op =
        (match op with
        | Deploy (cpu, machines) ->
            let before = registered () in
            let tid = !next_tid in
            incr next_tid;
            let ctx = ref None in
            let spec =
              { (Seeder.simple_spec ~name:"lists"
                   ~source:(seed_list_source ~cpu ~machines))
                with
                Seeder.ts_extra_sigs =
                  [ ("tick", { Typecheck.args = []; ret = Typecheck.Numeric }) ];
                ts_builtins =
                  [ ("tick", fun _ -> ticks := !ticks +. 1.; Value.Num !ticks) ];
                ts_harvester =
                  { Harvester.on_start = (fun c -> ctx := Some c);
                    on_message = (fun _ ~from_switch:_ _ -> ()) } }
            in
            (match (Seeder.deploy seeder spec, !ctx) with
            | Ok task, Some c -> live := !live @ [ (task, tid, c) ]
            | Ok _, None -> failwith "harvester not started"
            | Error _, _ ->
                if registered () <> before then
                  failwith "refused deploy left seeds registered";
                let prefix = Printf.sprintf "harvester.task%d." tid in
                if
                  List.exists (String.starts_with ~prefix)
                    (Farm_sim.Metrics.Registry.names (Engine.metrics engine))
                then failwith "refused deploy left harvester gauges")
        | Undeploy i -> (
            match List.nth_opt !live i with
            | Some ((task, _, _) as l) ->
                Seeder.undeploy seeder task;
                live := List.filter (fun l' -> l' != l) !live;
                gone := task :: !gone
            | None -> ()));
        settle ();
        ascending (List.map Soil.node_id (Seeder.soils seeder))
        && ascending
             (List.map
                (fun (s : Model.switch_caps) -> s.node)
                (Seeder.placement_instance seeder).switches)
        && List.for_all check_task !live
        && List.for_all
             (fun task ->
               Seeder.seed_specs seeder task = [] && Seeder.seeds seeder task = [])
             !gone
      in
      List.for_all step ops)

let test_seeder_collector_accounting () =
  let engine, _, fabric, seeder = make_world () in
  ignore (deployed seeder (watchdog_spec ~limit:10_000. ()));
  Alcotest.(check (float 0.)) "no traffic, no collector load" 0.
    (Seeder.collector_bytes seeder);
  let tuple =
    { Flow.src = Farm_net.Ipaddr.of_string "10.1.1.10";
      dst = Farm_net.Ipaddr.of_string "10.2.1.10"; sport = 1; dport = 80;
      proto = Flow.Tcp }
  in
  let _ = Fabric.start_flow fabric ~time:0. ~tuple ~rate:1e6 () in
  Engine.run ~until:1. engine;
  Alcotest.(check bool) "alerts counted" true
    (Seeder.collector_messages seeder >= 1);
  Alcotest.(check bool) "bytes counted" true
    (Seeder.collector_bytes seeder > 0.)

let test_seeder_undeploy_releases () =
  let engine, _, _, seeder = make_world () in
  ignore engine;
  let task = deployed seeder (watchdog_spec ()) in
  let n_seeds = List.length (Seeder.seeds seeder task) in
  Alcotest.(check bool) "seeds deployed" true (n_seeds > 0);
  Seeder.undeploy seeder task;
  Alcotest.(check int) "seeds gone" 0 (List.length (Seeder.seeds seeder task));
  Alcotest.(check bool) "not placed" false (Seeder.is_placed task)

(* Undeploy frees the task's harvester: its gauges stay in the registry
   with their names and values, but they read a counters record, not the
   harvester, whose context reaches the task (program, spec) and whose
   [seen] tables grow with every report. *)
let test_seeder_undeploy_frees_harvester () =
  let engine, _, fabric, seeder = make_world () in
  let weak = Weak.create 1 in
  let name = ref "" and received = ref 0. in
  let tuple =
    { Flow.src = Farm_net.Ipaddr.of_string "10.1.1.10";
      dst = Farm_net.Ipaddr.of_string "10.2.1.10"; sport = 1234; dport = 80;
      proto = Flow.Tcp }
  in
  ignore (Fabric.start_flow fabric ~time:0. ~tuple ~rate:100_000. ());
  (Sys.opaque_identity (fun () ->
       let task = deployed seeder (watchdog_spec ~limit:50_000. ()) in
       Engine.run ~until:1. engine;
       let h = Seeder.harvester task in
       received := float_of_int (Harvester.received_count h);
       name :=
         List.find
           (fun n -> String.starts_with ~prefix:"harvester.task" n
                     && String.ends_with ~suffix:".received" n)
           (Farm_sim.Metrics.Registry.names (Engine.metrics engine));
       Weak.set weak 0 (Some h);
       Seeder.undeploy seeder task))
    ();
  Engine.run ~until:1.5 engine;
  Gc.full_major ();
  Alcotest.(check bool) "reports were received" true (!received > 0.);
  Alcotest.(check (option (float 0.))) "gauge kept, same value" (Some !received)
    (Farm_sim.Metrics.Registry.value (Engine.metrics engine) !name);
  Alcotest.(check bool) "undeployed task's harvester collected" true
    (Option.is_none (Weak.get weak 0))

let test_seeder_rejects_bad_programs () =
  let _, _, _, seeder = make_world () in
  (match Seeder.deploy seeder (Seeder.simple_spec ~name:"bad" ~source:"machine {") with
  | Error m ->
      Alcotest.(check bool) "syntax error surfaced" true
        (String.length m > 0)
  | Ok _ -> Alcotest.fail "syntax error must fail");
  match
    Seeder.deploy seeder
      (Seeder.simple_spec ~name:"bad2"
         ~source:
           "machine M { long x; state s { when (enter) do { x = nope; } } }")
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "type error must fail"

(* A program whose assert admits a feasible violating path: deployable
   by default, refused under [verify_on_deploy]. *)
let brittle_source =
  {|
machine Brittle {
  place all;
  poll counters = Poll { .ival = 0.01, .what = port ANY };
  state observe {
    when (counters as stats) do {
      assert(stats_sum(stats) < 10);
    }
  }
}
|}

let test_seeder_verify_on_deploy () =
  (* default config: the symbolic pass does not run, deploy succeeds *)
  let _, _, _, seeder = make_world () in
  (match
     Seeder.deploy seeder
       (Seeder.simple_spec ~name:"brittle" ~source:brittle_source)
   with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "unverified deploy refused: %s" m);
  (* verify_on_deploy: the V403 feasible assert violation refuses it *)
  let engine = Engine.create ~seed:11 () in
  let fabric =
    Fabric.create (Topology.spine_leaf ~spines:2 ~leaves:2 ~hosts_per_leaf:1)
  in
  let seeder =
    Seeder.create
      ~config:{ Seeder.default_config with verify_on_deploy = true }
      engine fabric
  in
  (match
     Seeder.deploy seeder
       (Seeder.simple_spec ~name:"brittle" ~source:brittle_source)
   with
  | Error m ->
      Alcotest.(check bool) "refusal names the verify pass" true
        (String.length m >= 7 && String.sub m 0 7 = "verify:")
  | Ok _ -> Alcotest.fail "verify_on_deploy must refuse a failing assert");
  (* a sound program still deploys under the gate *)
  let spec = watchdog_spec ~limit:50_000. () in
  match Seeder.deploy seeder spec with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "verified deploy refused: %s" m

let test_seed_migration_preserves_state () =
  (* Manual migration through the Seed_exec API: snapshot on one soil,
     restore on another; machine state and variables survive, polling
     resumes on the target. *)
  let engine = Engine.create () in
  let sw0 = Switch_model.create ~id:0 ~ports:4 () in
  let sw1 = Switch_model.create ~id:1 ~ports:4 () in
  let soil0 = Soil.create engine sw0 in
  let soil1 = Soil.create engine sw1 in
  let source =
    {|
machine Counting {
  place all;
  poll ticks = Poll { .ival = 0.01, .what = port ANY };
  long count = 0;
  state s {
    when (ticks as stats) do { count = count + 1; }
  }
}
|}
  in
  let program = Typecheck.check (Farm_almanac.Parser.program source) in
  let polls = first_polls program in
  let resources = Array.make Farm_almanac.Analysis.n_resources 1. in
  let plan =
    Farm_almanac.Engine.prepare ~engine:`Compiled ~program ~machine:"Counting"
  in
  let deploy soil restore =
    Seed_exec.deploy ~soil ~plan ?restore ~resources
      ~polls
      ~send:(fun _ _ _ -> ())
      ~seed_id:7 ()
  in
  let s0 = deploy soil0 None in
  Engine.run ~until:0.5 engine;
  let count_at_migration =
    match Seed_exec.var s0 "count" with
    | Some (Value.Num n) -> n
    | _ -> Alcotest.fail "count unbound"
  in
  Alcotest.(check bool) "polled before migration" true
    (count_at_migration > 10.);
  let snapshot = Seed_exec.snapshot s0 in
  Seed_exec.destroy s0;
  Alcotest.(check bool) "origin stopped" false (Seed_exec.is_alive s0);
  let s1 = deploy soil1 (Some snapshot) in
  Alcotest.(check int) "runs on target switch" 1 (Seed_exec.node s1);
  Engine.run ~until:1. engine;
  (match Seed_exec.var s1 "count" with
  | Some (Value.Num n) ->
      Alcotest.(check bool) "state carried over and polling resumed" true
        (n > count_at_migration +. 10.)
  | _ -> Alcotest.fail "count unbound after migration");
  (* origin soil no longer polls *)
  Soil.reset_stats soil0;
  Engine.run ~until:1.5 engine;
  Alcotest.(check int) "origin soil idle" 0 (Soil.poll_stats soil0).asic_polls

(* A destroyed seed must not stay reachable.  On an overload-enabled
   soil a seed publishes a degradation gauge in the metrics registry; the
   gauge reads only the seed's rate-scale cell, so once the seed is
   destroyed and dropped, its instance (compiled program, host closures,
   subscriptions) can be collected while the gauge keeps its value. *)
let test_destroyed_seed_collectable () =
  let engine = Engine.create () in
  let soil =
    Soil.create
      ~config:{ Soil.default_config with overload = Some Soil.default_overload }
      engine
      (Switch_model.create ~id:0 ~ports:4 ())
  in
  let source =
    {|
machine Counting {
  place all;
  poll ticks = Poll { .ival = 0.01, .what = port ANY };
  long count = 0;
  state s {
    when (ticks as stats) do { count = count + 1; }
  }
}
|}
  in
  let program = Typecheck.check (Farm_almanac.Parser.program source) in
  let polls = first_polls program in
  let weak = Weak.create 1 in
  let deploy_and_destroy () =
    let s =
      Seed_exec.deploy ~soil
        ~plan:
          (Farm_almanac.Engine.prepare ~engine:`Compiled ~program
             ~machine:"Counting")
        ~adaptive:[ "ticks" ]
        ~resources:(Array.make Farm_almanac.Analysis.n_resources 1.)
        ~polls ~send:(fun _ _ _ -> ()) ~seed_id:7 ()
    in
    Engine.run ~until:0.1 engine;
    Seed_exec.on_pressure s ~high:true;
    Weak.set weak 0 (Some s);
    Seed_exec.destroy s
  in
  (Sys.opaque_identity deploy_and_destroy) ();
  (* let in-flight polls drain *)
  Engine.run ~until:0.2 engine;
  Gc.full_major ();
  Alcotest.(check bool) "destroyed seed collected" true
    (Option.is_none (Weak.get weak 0));
  Alcotest.(check (option (float 1e-12))) "gauge keeps its value"
    (Some (1. -. Overload.back_off 1.))
    (Farm_sim.Metrics.Registry.value (Engine.metrics engine)
       "seed.7.degradation")

let test_seed_realloc_changes_poll_rate () =
  (* a seed whose ival = 10/PCIe polls faster after more PCIe is granted *)
  let engine = Engine.create () in
  let sw = Switch_model.create ~id:0 ~ports:4 () in
  let soil = Soil.create engine sw in
  let source =
    {|
machine R {
  place all;
  poll ticks = Poll { .ival = 10 / res().PCIe, .what = port ANY };
  long count = 0;
  long reallocs = 0;
  state s {
    when (ticks as stats) do { count = count + 1; }
    when (realloc) do { reallocs = reallocs + 1; }
  }
}
|}
  in
  let program = Typecheck.check (Farm_almanac.Parser.program source) in
  let polls = first_polls program in
  let res = Array.make Farm_almanac.Analysis.n_resources 1. in
  res.(Farm_almanac.Analysis.resource_index Farm_almanac.Analysis.Pcie) <- 100.;
  (* ival = 10/100 = 0.1 s *)
  let seed =
    Seed_exec.deploy ~soil
      ~plan:(Farm_almanac.Engine.prepare ~engine:`Compiled ~program ~machine:"R")
      ~resources:res ~polls
      ~send:(fun _ _ _ -> ())
      ~seed_id:1 ()
  in
  Engine.run ~until:1. engine;
  let c1 =
    match Seed_exec.var seed "count" with
    | Some (Value.Num n) -> n
    | _ -> 0.
  in
  Alcotest.(check bool) "about 10 polls in 1s" true (c1 >= 8. && c1 <= 12.);
  (* grant 10x the polling capacity *)
  let res2 = Array.copy res in
  res2.(Farm_almanac.Analysis.resource_index Farm_almanac.Analysis.Pcie) <-
    1000.;
  Seed_exec.set_resources seed res2;
  Engine.run ~until:2. engine;
  let c2 =
    match Seed_exec.var seed "count" with
    | Some (Value.Num n) -> n
    | _ -> 0.
  in
  Alcotest.(check bool)
    (Printf.sprintf "10x faster after realloc (%.0f then %.0f)" c1 (c2 -. c1))
    true
    (c2 -. c1 >= 80.);
  match Seed_exec.var seed "reallocs" with
  | Some (Value.Num n) -> Alcotest.(check (float 0.)) "realloc event fired" 1. n
  | _ -> Alcotest.fail "reallocs unbound"

let test_inter_seed_messaging () =
  (* two machine types in one task: Sensor seeds broadcast to the Mirror
     machine; a directed send (@ switch) reaches only that switch's seed *)
  let engine = Engine.create ~seed:17 () in
  let topo = Topology.linear ~n:2 in
  let fabric = Fabric.create topo in
  let seeder = Seeder.create engine fabric in
  let source =
    {|
machine Sensor {
  place all;
  time tick = Time { .ival = 0.5 };
  long fired = 0;
  state s {
    when (tick as t) do {
      if (fired == 0) then {
        send 41 to Mirror;                  // broadcast to all Mirror seeds
        send 1 to Mirror @ 0;               // directed: switch 0 only
        fired = 1;
      }
    }
  }
}
machine Mirror {
  place all;
  long total = 0;
  state s {
    when (recv long v from Sensor) do { total = total + v; }
  }
}
|}
  in
  let task = deployed seeder (Seeder.simple_spec ~name:"pair" ~source) in
  Engine.run ~until:2. engine;
  let mirror_total node =
    match Seeder.seed_on seeder task ~machine:"Mirror" ~node with
    | Some s -> (
        match Seed_exec.var s "total" with
        | Some (Value.Num n) -> n
        | _ -> Alcotest.fail "total unbound")
    | None -> Alcotest.failf "no Mirror seed on switch %d" node
  in
  (* both sensors broadcast 41 once (2x41); switch 0 additionally got two
     directed 1s (one from each sensor) *)
  Alcotest.(check (float 0.)) "switch 0: broadcasts + directed" 84.
    (mirror_total 0);
  Alcotest.(check (float 0.)) "switch 1: broadcasts only" 82.
    (mirror_total 1)

let test_switch_failure_recovery () =
  (* a task placeable anywhere survives a switch failure: its seed is lost
     with the switch and restarted elsewhere by re-optimization *)
  let engine = Engine.create ~seed:13 () in
  let topo = Topology.spine_leaf ~spines:2 ~leaves:2 ~hosts_per_leaf:1 in
  let fabric = Fabric.create topo in
  let seeder = Seeder.create engine fabric in
  let source =
    {|
machine Roam {
  place any;
  poll ticks = Poll { .ival = 0.01, .what = port ANY };
  long polls = 0;
  state s { when (ticks as stats) do { polls = polls + 1; } }
}
|}
  in
  let task = deployed seeder (Seeder.simple_spec ~name:"roam" ~source) in
  Engine.run ~until:1. engine;
  let seed = List.hd (Seeder.seeds seeder task) in
  let home = Seed_exec.node seed in
  Seeder.crash_switch seeder home;
  Alcotest.(check (list int)) "marked failed" [ home ]
    (Healing.failed_switches (Seeder.healing seeder));
  (* the replacement seed lives on another switch and polls again *)
  (match Seeder.seeds seeder task with
  | [ replacement ] ->
      Alcotest.(check bool) "moved off the failed switch" true
        (Seed_exec.node replacement <> home);
      Engine.run ~until:2. engine;
      (match Seed_exec.var replacement "polls" with
      | Some (Value.Num n) ->
          Alcotest.(check bool) "polling resumed" true (n > 10.)
      | _ -> Alcotest.fail "polls unbound")
  | seeds -> Alcotest.failf "expected 1 seed, got %d" (List.length seeds));
  (* the old instance is dead *)
  Alcotest.(check bool) "old instance destroyed" false (Seed_exec.is_alive seed)

let test_switch_failure_drops_pinned_task () =
  (* a task pinned to one switch cannot survive that switch's failure *)
  let engine = Engine.create ~seed:14 () in
  let topo = Topology.spine_leaf ~spines:2 ~leaves:2 ~hosts_per_leaf:1 in
  let fabric = Fabric.create topo in
  let seeder = Seeder.create engine fabric in
  let source =
    {|
machine Pinned {
  place any "leaf0";
  long x;
  state s { }
}
|}
  in
  let task = deployed seeder (Seeder.simple_spec ~name:"pinned" ~source) in
  let node = Seed_exec.node (List.hd (Seeder.seeds seeder task)) in
  Seeder.crash_switch seeder node;
  Alcotest.(check int) "task dropped with its only switch" 0
    (List.length (Seeder.seeds seeder task))

let test_reoptimize_migrates_on_arrival () =
  (* a later, more valuable task can push an existing movable seed to its
     other candidate switch; the migrated seed keeps its state *)
  let engine = Engine.create ~seed:15 () in
  let topo = Topology.linear ~n:2 in
  let fabric = Fabric.create topo in
  let seeder = Seeder.create engine fabric in
  let source =
    {|
machine Counting {
  place any;
  poll ticks = Poll { .ival = 0.01, .what = port ANY };
  long polls = 0;
  state s { when (ticks as stats) do { polls = polls + 1; } }
}
|}
  in
  let task = deployed seeder (Seeder.simple_spec ~name:"count" ~source) in
  Engine.run ~until:1. engine;
  let seed = List.hd (Seeder.seeds seeder task) in
  let polls_before =
    match Seed_exec.var seed "polls" with
    | Some (Value.Num n) -> n
    | _ -> 0.
  in
  Alcotest.(check bool) "accumulated state" true (polls_before > 50.);
  (* migration through the seeder API *)
  Seeder.reoptimize seeder;
  Engine.run ~until:3. engine;
  match Seeder.seeds seeder task with
  | [ s ] -> (
      match Seed_exec.var s "polls" with
      | Some (Value.Num n) ->
          Alcotest.(check bool) "state preserved across reoptimize" true
            (n >= polls_before)
      | _ -> Alcotest.fail "polls unbound")
  | seeds -> Alcotest.failf "expected 1 seed, got %d" (List.length seeds)

(* The seeder prepares each task machine once: every seed of a task, a
   live-migrated seed and a crash-recovered one hold the physically same
   plan; a second deploy of the same source prepares its own; and once
   its task is undeployed, nothing keeps a plan alive. *)
let test_seeder_shares_one_plan () =
  let engine = Engine.create ~seed:16 () in
  let topo = Topology.spine_leaf ~spines:2 ~leaves:2 ~hosts_per_leaf:1 in
  let seeder = Seeder.create engine (Fabric.create topo) in
  let deploy name source =
    match Seeder.deploy seeder (Seeder.simple_spec ~name ~source) with
    | Ok t -> t
    | Error m -> Alcotest.failf "deploy %s failed: %s" name m
  in
  let plan_of task =
    match Seeder.seeds seeder task with
    | s :: _ -> Seed_exec.plan s
    | [] -> Alcotest.fail "task has no seeds"
  in
  let all_source =
    {|
machine Everywhere {
  place all;
  poll ticks = Poll { .ival = 0.01, .what = port ANY };
  long polls = 0;
  state s { when (ticks as stats) do { polls = polls + 1; } }
}
|}
  in
  let every = deploy "every" all_source in
  let plan = plan_of every in
  Alcotest.(check int) "a seed per switch" 4
    (List.length (Seeder.seeds seeder every));
  List.iter
    (fun s -> Alcotest.(check bool) "seeds share the plan" true
        (Seed_exec.plan s == plan))
    (Seeder.seeds seeder every);
  let again = deploy "again" all_source in
  Alcotest.(check bool) "a second deploy prepares its own plan" false
    (plan_of again == plan);
  List.iter
    (fun s -> Alcotest.(check bool) "its seeds share it" true
        (Seed_exec.plan s == plan_of again))
    (Seeder.seeds seeder again);
  (* live migration: a pinned task that needs most of the roamer's switch
     pushes the roamer to the other leaf *)
  let roam =
    deploy "roam"
      {|
machine Roam {
  place any "leaf0", "leaf1";
  poll ticks = Poll { .ival = 0.01, .what = port ANY };
  long polls = 0;
  state s {
    util (res) { if (res.vCPU >= 2.5) then { return 10; } }
    when (ticks as stats) do { polls = polls + 1; }
  }
}
|}
  in
  let roam_plan = plan_of roam in
  Engine.run ~until:0.5 engine;
  let home = Seed_exec.node (List.hd (Seeder.seeds seeder roam)) in
  let hog =
    deploy "hog"
       (Printf.sprintf
          {|
machine Hog {
  place any "%s";
  long x = 0;
  state s { util (res) { if (res.vCPU >= 2.5) then { return 50; } } }
}
|}
          (Topology.node topo home).name)
  in
  Engine.run ~until:1. engine;
  Alcotest.(check bool) "the roamer migrated" true (Seeder.migrations seeder > 0);
  (match Seeder.seeds seeder roam with
  | [ s ] ->
      Alcotest.(check bool) "moved off its first switch" true
        (Seed_exec.node s <> home);
      Alcotest.(check bool) "migrated seed shares the plan" true
        (Seed_exec.plan s == roam_plan)
  | seeds -> Alcotest.failf "expected 1 roamer, got %d" (List.length seeds));
  (* crash recovery, onto the switch the hog leaves free *)
  Seeder.undeploy seeder hog;
  let before = List.hd (Seeder.seeds seeder roam) in
  Seeder.crash_switch seeder (Seed_exec.node before);
  (match Seeder.seeds seeder roam with
  | [ s ] ->
      Alcotest.(check bool) "recovered elsewhere" true (s != before);
      Alcotest.(check bool) "recovered seed shares the plan" true
        (Seed_exec.plan s == roam_plan)
  | seeds -> Alcotest.failf "expected 1 roamer, got %d" (List.length seeds));
  (* undeploy releases the plan *)
  let weak = Weak.create 1 in
  (Sys.opaque_identity (fun () ->
       Weak.set weak 0 (Some (plan_of again));
       Seeder.undeploy seeder again))
    ();
  Engine.run ~until:1.5 engine;
  Gc.full_major ();
  Alcotest.(check bool) "undeployed task's plan collected" true
    (Option.is_none (Weak.get weak 0));
  (* ... while this test still holds the task handle *)
  Alcotest.(check bool) "held task is undeployed" false
    (Seeder.is_placed again)

(* ------------------------------------------------------------------ *)
(* Self-healing: checkpoints, idempotence, detection, recovery         *)
(* ------------------------------------------------------------------ *)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

(* -- checkpoint codec round-trip (qcheck) -------------------------- *)

let value_gen =
  let open QCheck2.Gen in
  let finite_float =
    oneof
      [ float_range (-1e12) 1e12;
        oneofl [ 0.; -0.; 1e-300; 4.2; 1.5e9; -7.25 ] ]
  in
  let ipaddr = map Farm_net.Ipaddr.of_int (int_range 0 0xFFFFFFFF) in
  let prefix =
    map2
      (fun a l -> Farm_net.Ipaddr.Prefix.make a l)
      ipaddr (int_range 0 32)
  in
  let proto = oneofl [ Flow.Tcp; Flow.Udp; Flow.Icmp ] in
  let fatom =
    oneof
      [ map (fun p -> Filter.Src_ip p) prefix;
        map (fun p -> Filter.Dst_ip p) prefix;
        map (fun p -> Filter.Src_port p) (int_range 0 65535);
        map (fun p -> Filter.Dst_port p) (int_range 0 65535);
        map (fun p -> Filter.Port p) (int_range 0 65535);
        map (fun p -> Filter.Proto p) proto;
        return Filter.Any ]
  in
  let filter =
    sized
      (fix (fun self n ->
           if n <= 0 then
             oneof [ oneofl [ Filter.True; Filter.False ]; map Filter.atom fatom ]
           else
             oneof
               [ map Filter.atom fatom;
                 map2 (fun a b -> Filter.And (a, b)) (self (n / 2)) (self (n / 2));
                 map2 (fun a b -> Filter.Or (a, b)) (self (n / 2)) (self (n / 2));
                 map (fun a -> Filter.Not a) (self (n / 2)) ]))
  in
  let action =
    oneof
      [ map (fun p -> Tcam.Forward p) (int_range 0 64);
        return Tcam.Drop;
        map (fun r -> Tcam.Rate_limit r) (float_range 0. 1e9);
        map (fun q -> Tcam.Set_qos q) (int_range 0 7);
        return Tcam.Mirror; return Tcam.Count ]
  in
  let str = string_small_of printable in
  let packet =
    let* src = ipaddr and* dst = ipaddr in
    let* sport = int_range 0 65535 and* dport = int_range 0 65535 in
    let* proto = proto and* size = int_range 0 9000 in
    let* syn = bool and* ack = bool and* fin = bool and* rst = bool in
    let* payload = str in
    return
      { Flow.tuple = { Flow.src; dst; sport; dport; proto }; size;
        flags = { Flow.syn; ack; fin; rst }; payload }
  in
  let stats = map (fun l -> Array.of_list l) (list_size (int_range 0 8) finite_float) in
  let name = string_size ~gen:(char_range 'a' 'z') (int_range 1 8) in
  sized
    (fix (fun self n ->
         let leaf =
           oneof
             [ return Value.Unit;
               map (fun b -> Value.Bool b) bool;
               map (fun f -> Value.Num f) finite_float;
               map (fun s -> Value.Str s) str;
               map (fun p -> Value.Packet p) packet;
               map (fun a -> Value.Action a) action;
               map (fun f -> Value.FilterV f) filter;
               map (fun a -> Value.Stats a) stats ]
         in
         if n <= 0 then leaf
         else
           oneof
             [ leaf;
               map (fun l -> Value.List l)
                 (list_size (int_range 0 4) (self (n / 3)));
               map2
                 (fun nm fs -> Value.Struct (nm, fs))
                 name
                 (list_size (int_range 0 4)
                    (pair name (self (n / 3)))) ]))

let one_var v =
  { Checkpoint.ck_seed = 3; ck_epoch = 1; ck_seq = 0; ck_full = true;
    ck_vars = [ ("v", v) ]; ck_removed = []; ck_state = "s" }

let prop_value_roundtrip =
  QCheck2.Test.make ~name:"checkpoint: value codec round-trips" ~count:300
    ~print:Value.to_string value_gen (fun v ->
      match (Checkpoint.decode (Checkpoint.encode (one_var v))).ck_vars with
      | [ ("v", v') ] -> Value.equal v v'
      | _ -> false)

(* machine-state snapshots: distinctly-named vars + a state string *)
let snapshot_gen =
  let open QCheck2.Gen in
  let name = string_size ~gen:(char_range 'a' 'z') (int_range 1 6) in
  let* names = list_size (int_range 0 8) name in
  let names = List.sort_uniq String.compare names in
  let* vals = flatten_l (List.map (fun _ -> value_gen) names) in
  let* state = name in
  return (List.combine names vals, state)

let vars_equal a b =
  let norm l =
    List.sort (fun (k1, _) (k2, _) -> String.compare k1 k2) l
  in
  List.length a = List.length b
  && List.for_all2
       (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && Value.equal v1 v2)
       (norm a) (norm b)

let prop_checkpoint_roundtrip =
  (* encode -> decode is the identity on full checkpoints, and
     delta + apply reconstructs the follow-up snapshot exactly *)
  QCheck2.Test.make ~name:"checkpoint: delta/apply + wire round-trip"
    ~count:200
    QCheck2.Gen.(pair snapshot_gen snapshot_gen)
    (fun ((base_vars, state0), (next_vars, state1)) ->
      let full =
        { Checkpoint.ck_seed = 3; ck_epoch = 1; ck_seq = 0; ck_full = true;
          ck_vars = base_vars; ck_removed = []; ck_state = state0 }
      in
      let full' = Checkpoint.decode (Checkpoint.encode full) in
      let changed, removed = Checkpoint.delta ~base:base_vars next_vars in
      let delta_ck =
        { Checkpoint.ck_seed = 3; ck_epoch = 1; ck_seq = 1; ck_full = false;
          ck_vars = changed; ck_removed = removed; ck_state = state1 }
      in
      let delta_ck' = Checkpoint.decode (Checkpoint.encode delta_ck) in
      let reconstructed =
        Checkpoint.apply ~base:(Checkpoint.apply ~base:[] full') delta_ck'
      in
      full' = full (* int/bool/string fields *)
      && vars_equal full'.ck_vars base_vars
      && String.equal full'.ck_state state0
      && vars_equal reconstructed next_vars)

let priced_exactly c =
  Checkpoint.wire_bytes c = float_of_int (String.length (Checkpoint.encode c))

(* [wire_bytes] counts what [encode] writes, for full checkpoints and for
   deltas against a second snapshot; the delta's state is any printable
   string, so escaped attribute values are priced too. *)
let prop_wire_bytes =
  QCheck2.Test.make ~name:"checkpoint: wire_bytes = length of encode"
    ~count:300
    QCheck2.Gen.(triple snapshot_gen snapshot_gen (string_small_of printable))
    (fun ((base_vars, state0), (next_vars, _), state1) ->
      let full =
        { Checkpoint.ck_seed = 3; ck_epoch = 1; ck_seq = 0; ck_full = true;
          ck_vars = base_vars; ck_removed = []; ck_state = state0 }
      in
      let changed, removed = Checkpoint.delta ~base:base_vars next_vars in
      let delta_ck =
        { Checkpoint.ck_seed = 3; ck_epoch = 1; ck_seq = 1; ck_full = false;
          ck_vars = changed; ck_removed = removed; ck_state = state1 }
      in
      priced_exactly full && priced_exactly delta_ck)

(* The length [wire_bytes] gives a float, held in a number, a counter
   array and a rate-limit action, is that of [Printf.sprintf "%h"], which
   [encode] writes: over random 64-bit patterns, and one by one over the
   edge cases of the format (zeros, subnormals, infinities, NaNs of either
   sign, exponents of one to four digits). *)
let hex_edge_cases =
  let bits = Int64.float_of_bits in
  [ 0.; -0.; 1.; -1.; 16.; 1024.; 0.1; 1e30; 1e31; 1e-300; 0x1p-1000;
    5e-324; -5e-324; bits 0x000F_FFFF_FFFF_FFFFL; bits 0x0008_0000_0000_0000L;
    Float.infinity; Float.neg_infinity; Float.max_float; -.Float.max_float;
    Float.min_float; -.Float.min_float; Float.nan; -.Float.nan;
    bits 0x7FF0_0000_0000_0001L; bits 0xFFF8_0000_0000_0000L;
    bits 0xFFFF_FFFF_FFFF_FFFFL ]

let hex_priced_exactly f =
  List.for_all
    (fun v -> priced_exactly (one_var v))
    [ Value.Num f; Value.Stats [| f; 1.; f |];
      Value.Action (Farm_net.Tcam.Rate_limit f) ]

let prop_hex_length =
  QCheck2.Test.make ~name:"checkpoint: a float's wire length = %h length"
    ~count:2000 ~print:(Printf.sprintf "%h")
    QCheck2.Gen.(map Int64.float_of_bits int64)
    hex_priced_exactly

let test_hex_edge_cases () =
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Printf.sprintf "%h (%S) priced exactly" f (Printf.sprintf "%h" f))
        true (hex_priced_exactly f))
    hex_edge_cases

(* The wire form of one checkpoint holding every kind of value, as the
   tree-building encoder wrote it: escaped quotes, ampersands and angle
   brackets in payloads and names, every filter and action form, and
   hex floats from zero and subnormals to infinity. *)
let golden_checkpoint =
  let prefix s = Option.get (Farm_net.Ipaddr.Prefix.of_string_opt s) in
  let ip = Farm_net.Ipaddr.of_string in
  let packet =
    { Flow.tuple =
        { Flow.src = ip "10.1.2.3"; dst = ip "192.168.0.254"; sport = 40000;
          dport = 80; proto = Flow.Tcp };
      size = 1500;
      flags = { Flow.syn = true; ack = false; fin = true; rst = false };
      payload = "GET /?a=<b>&c=\"d\"&e='f'" }
  in
  let filter =
    Filter.And
      ( Filter.Or
          ( Filter.Atom (Filter.Src_ip (prefix "10.0.0.0/8")),
            Filter.Not (Filter.Atom (Filter.Dst_ip (prefix "172.16.4.0/22"))) ),
        Filter.And
          ( Filter.Or
              (Filter.Atom (Filter.Src_port 53), Filter.Atom (Filter.Dst_port 443)),
            Filter.Or
              ( Filter.And (Filter.Atom (Filter.Port 22), Filter.True),
                Filter.Or
                  ( Filter.Atom (Filter.Proto Flow.Udp),
                    Filter.Or (Filter.Atom Filter.Any, Filter.False) ) ) ) )
  in
  let actions =
    Value.List
      (List.map
         (fun a -> Value.Action a)
         Tcam.[ Forward 3; Drop; Rate_limit 1.25e6; Set_qos 5; Mirror; Count ])
  in
  { Checkpoint.ck_seed = 7; ck_epoch = 2; ck_seq = 13; ck_full = false;
    ck_vars =
      [ ("unit", Value.Unit); ("flag", Value.Bool true);
        ("off", Value.Bool false); ("count", Value.Num 42.);
        ("rate", Value.Num (-0.1)); ("zero", Value.Num (-0.));
        ("tiny", Value.Num 5e-324); ("huge", Value.Num Float.infinity);
        ("name", Value.Str "a<b & \"c\" 'd'>"); ("empty", Value.Str "");
        ("pkt", Value.Packet packet); ("rule", Value.FilterV filter);
        ("acts", actions);
        ("counters", Value.Stats [| 0.; 1.5; 1e300; -2.; Float.max_float |]);
        ("nostats", Value.Stats [||]);
        ("nested", Value.List [ Value.Num 1.; Value.Str "x"; Value.List [] ]);
        ( "flow",
          Value.Struct
            ( "flow",
              [ ("bytes", Value.Num 1e9);
                ("key", Value.Struct ("key", [ ("src", Value.Str "10.0.0.1") ]));
                ("none", Value.Struct ("none", [])) ] ) ) ];
    ck_removed = [ "old"; "gone&" ];
    ck_state = "watch\"ing" }

let golden_wire_form =
  {|<checkpoint seed="7" epoch="2" seq="13" full="0" state="watch&quot;ing"><vars><var name="unit"><unit/></var><var name="flag"><bool v="1"/></var><var name="off"><bool v="0"/></var><var name="count"><num v="0x1.5p+5"/></var><var name="rate"><num v="-0x1.999999999999ap-4"/></var><var name="zero"><num v="-0x0p+0"/></var><var name="tiny"><num v="0x0.0000000000001p-1022"/></var><var name="huge"><num v="infinity"/></var><var name="name"><str v="a&lt;b &amp; &quot;c&quot; &apos;d&apos;&gt;"/></var><var name="empty"><str v=""/></var><var name="pkt"><packet src="10.1.2.3" dst="192.168.0.254" sport="40000" dport="80" proto="tcp" size="1500" syn="1" ack="0" fin="1" rst="0" payload="GET /?a=&lt;b&gt;&amp;c=&quot;d&quot;&amp;e=&apos;f&apos;"/></var><var name="rule"><filter><and><or><srcip v="10.0.0.0/8"/><not><dstip v="172.16.4.0/22"/></not></or><and><or><srcport v="53"/><dstport v="443"/></or><or><and><port v="22"/><t/></and><or><proto v="udp"/><or><anyatom/><f/></or></or></or></and></and></filter></var><var name="acts"><list><action kind="forward" arg="3"/><action kind="drop"/><action kind="ratelimit" arg="0x1.312dp+20"/><action kind="setqos" arg="5"/><action kind="mirror"/><action kind="count"/></list></var><var name="counters"><stats v="0x0p+0 0x1.8p+0 0x1.7e43c8800759cp+996 -0x1p+1 0x1.fffffffffffffp+1023"/></var><var name="nostats"><stats v=""/></var><var name="nested"><list><num v="0x1p+0"/><str v="x"/><list/></list></var><var name="flow"><struct name="flow"><field name="bytes"><num v="0x1.dcd65p+29"/></field><field name="key"><struct name="key"><field name="src"><str v="10.0.0.1"/></field></struct></field><field name="none"><struct name="none"/></field></struct></var></vars><removed><r n="old"/><r n="gone&amp;"/></removed></checkpoint>|}

let test_checkpoint_golden () =
  let ck = golden_checkpoint in
  Alcotest.(check string) "encode" golden_wire_form (Checkpoint.encode ck);
  Alcotest.(check (float 0.)) "wire_bytes"
    (float_of_int (String.length golden_wire_form))
    (Checkpoint.wire_bytes ck);
  let back = Checkpoint.decode golden_wire_form in
  Alcotest.(check bool) "decode" true
    (back.ck_state = ck.ck_state && back.ck_removed = ck.ck_removed
    && vars_equal back.ck_vars ck.ck_vars)

(* -- the seeder-side merge rule, one arriving checkpoint at a time --- *)

let test_checkpoint_merge_rule () =
  let engine, _, _, seeder = make_world () in
  let healing = Seeder.healing seeder in
  let ck = Healing.ck () in
  let gaps () =
    Farm_sim.Metrics.Registry.value (Engine.metrics engine)
      "seeder.checkpoints.gaps"
  in
  let arrive ~epoch ~seq ~full vars =
    { Checkpoint.ck_seed = 0; ck_epoch = epoch; ck_seq = seq; ck_full = full;
      ck_vars = List.map (fun (k, x) -> (k, Value.Num x)) vars;
      ck_removed = []; ck_state = Printf.sprintf "s%d.%d" epoch seq }
  in
  (* what happens; the seed's current epoch; the arriving checkpoint;
     the store afterwards (vars, state); seeder.checkpoints.gaps *)
  let rows =
    [ ("a delta before any full snapshot is a gap", 1,
       arrive ~epoch:1 ~seq:0 ~full:false [ ("x", 1.) ], None, 1);
      ("a full snapshot starts the store", 1,
       arrive ~epoch:1 ~seq:1 ~full:true [ ("x", 1.); ("y", 1.) ],
       Some ([ ("x", 1.); ("y", 1.) ], "s1.1"), 1);
      ("the next delta merges", 1,
       arrive ~epoch:1 ~seq:2 ~full:false [ ("x", 2.) ],
       Some ([ ("x", 2.); ("y", 1.) ], "s1.2"), 1);
      ("a duplicate is ignored", 1,
       arrive ~epoch:1 ~seq:2 ~full:false [ ("x", 9.) ],
       Some ([ ("x", 2.); ("y", 1.) ], "s1.2"), 1);
      ("a reordered older delta is ignored", 1,
       arrive ~epoch:1 ~seq:1 ~full:false [ ("x", 7.) ],
       Some ([ ("x", 2.); ("y", 1.) ], "s1.2"), 1);
      ("a delta after a gap is counted and held", 1,
       arrive ~epoch:1 ~seq:4 ~full:false [ ("x", 4.) ],
       Some ([ ("x", 2.); ("y", 1.) ], "s1.2"), 2);
      ("the next full snapshot replaces the store", 1,
       arrive ~epoch:1 ~seq:5 ~full:true [ ("z", 5.) ],
       Some ([ ("z", 5.) ], "s1.5"), 2);
      ("a full snapshot from an older epoch is dropped", 2,
       arrive ~epoch:1 ~seq:6 ~full:true [ ("w", 6.) ],
       Some ([ ("z", 5.) ], "s1.5"), 2);
      ("a delta from a newer epoch is dropped", 1,
       arrive ~epoch:2 ~seq:6 ~full:false [ ("w", 6.) ],
       Some ([ ("z", 5.) ], "s1.5"), 2);
      ("a full snapshot of the current epoch replaces an older epoch's", 2,
       arrive ~epoch:2 ~seq:0 ~full:true [ ("v", 0.) ],
       Some ([ ("v", 0.) ], "s2.0"), 2) ]
  in
  List.iter
    (fun (what, epoch, c, want, want_gaps) ->
      Healing.merge healing ck ~epoch c;
      let got =
        Option.map (fun (_, vars, state) -> (vars, state))
          (Healing.last_checkpoint ck)
      in
      (match (got, want) with
      | None, None -> ()
      | Some (vars, state), Some (want_vars, want_state) ->
          Alcotest.(check string) (what ^ ": state") want_state state;
          Alcotest.(check bool) (what ^ ": vars") true
            (vars_equal vars
               (List.map (fun (k, x) -> (k, Value.Num x)) want_vars))
      | Some _, None | None, Some _ ->
          Alcotest.fail (what ^ ": store presence"));
      Alcotest.(check (option (float 0.))) (what ^ ": gaps")
        (Some (float_of_int want_gaps)) (gaps ()))
    rows

(* -- restored checkpoints resume identically on both engines ------- *)

let counting_source =
  {|
machine Counting {
  place any;
  poll ticks = Poll { .ival = 0.01, .what = port ANY };
  long count = 0;
  state s { when (ticks as stats) do { count = count + 1; } }
}
|}

let test_checkpoint_restore_engine_equivalence () =
  (* run a seed, checkpoint it through the wire codec, restore the decoded
     state into a fresh interpreter AND a fresh compiled instance: both
     resume from the same point and stay in lockstep *)
  let program =
    Typecheck.check (Farm_almanac.Parser.program counting_source)
  in
  let polls = first_polls program in
  let resources = Array.make Farm_almanac.Analysis.n_resources 1. in
  let fresh_exec ?restore engine_kind =
    let engine = Engine.create () in
    let sw = Switch_model.create ~id:0 ~ports:4 () in
    let soil = Soil.create engine sw in
    let exec =
      Seed_exec.deploy ~soil
        ~plan:
          (Farm_almanac.Engine.prepare ~engine:engine_kind ~program
             ~machine:"Counting")
        ?restore ~resources ~polls
        ~send:(fun _ _ _ -> ())
        ~seed_id:1 ()
    in
    (engine, exec)
  in
  let engine0, exec0 = fresh_exec `Compiled in
  Engine.run ~until:0.5 engine0;
  let vars, state = Seed_exec.snapshot exec0 in
  (* through the wire format *)
  let ck =
    { Checkpoint.ck_seed = 1; ck_epoch = 0; ck_seq = 0; ck_full = true;
      ck_vars = vars; ck_removed = []; ck_state = state }
  in
  let ck = Checkpoint.decode (Checkpoint.encode ck) in
  let restore = (ck.Checkpoint.ck_vars, ck.Checkpoint.ck_state) in
  let count exec =
    match Seed_exec.var exec "count" with
    | Some (Value.Num n) -> n
    | _ -> Alcotest.fail "count unbound"
  in
  let c0 = count exec0 in
  Alcotest.(check bool) "accumulated state" true (c0 > 10.);
  let engine_i, exec_i = fresh_exec ~restore `Interp in
  let engine_c, exec_c = fresh_exec ~restore `Compiled in
  Alcotest.(check (float 0.)) "interp resumes at checkpoint" c0 (count exec_i);
  Alcotest.(check (float 0.)) "compiled resumes at checkpoint" c0
    (count exec_c);
  Engine.run ~until:0.5 engine_i;
  Engine.run ~until:0.5 engine_c;
  Alcotest.(check (float 0.)) "lockstep after resume" (count exec_i)
    (count exec_c);
  Alcotest.(check bool) "both progressed" true (count exec_i > c0);
  Alcotest.(check string) "same machine state" (Seed_exec.state exec_i)
    (Seed_exec.state exec_c)

(* -- packed numeric lists ------------------------------------------- *)

(* A list of numbers the compiled engine builds by appends in a loop is
   held packed ([Value.Nums]); it is the [Value.List] of its [Num]s to
   every reader, and the runtime only ever sees that [List]. *)
let packed = Value.Nums (Float.Array.of_list [ 3.; 0.5; -0.; 1e20; 7. ])

let unpacked =
  Value.List (List.map (fun x -> Value.Num x) [ 3.; 0.5; -0.; 1e20; 7. ])

let test_packed_checkpoint_bytes () =
  let ck v =
    { Checkpoint.ck_seed = 3; ck_epoch = 1; ck_seq = 0; ck_full = true;
      ck_vars = [ ("prev", v); ("hitters", Value.Nums (Float.Array.create 0)) ];
      ck_removed = []; ck_state = "observe" }
  in
  let plain_ck =
    { (ck unpacked) with
      ck_vars = [ ("prev", unpacked); ("hitters", Value.List []) ] }
  in
  Alcotest.(check string) "encode" (Checkpoint.encode plain_ck)
    (Checkpoint.encode (ck packed));
  Alcotest.(check (float 0.)) "wire_bytes" (Checkpoint.wire_bytes plain_ck)
    (Checkpoint.wire_bytes (ck packed));
  Alcotest.(check bool) "decodes to the List" true
    (match (Checkpoint.decode (Checkpoint.encode (ck packed))).ck_vars with
    | [ ("prev", (Value.List _ as v)); ("hitters", Value.List []) ] ->
        Value.equal v unpacked
    | _ -> false)

(* heavy-hitter's seed ([stats_list] packs [prev]) plus a machine that
   sends the packed list itself on every poll *)
let packed_source =
  Farm_tasks.Task_common.stats_helpers
  ^ {|
machine Sender {
  place any;
  poll ticks = Poll { .ival = 0.01, .what = port ANY };
  list last = [];
  state s {
    when (ticks as stats) do {
      last = stats_list(stats);
      send last to harvester;
    }
  }
}
|}

let packed_exec ?restore ~send engine_kind program machine =
  let engine = Engine.create () in
  let sw = Switch_model.create ~id:0 ~ports:6 () in
  let soil = Soil.create engine sw in
  let exec =
    Seed_exec.deploy ~soil
      ~plan:(Farm_almanac.Engine.prepare ~engine:engine_kind ~program ~machine)
      ?restore
      ~resources:(Array.make Farm_almanac.Analysis.n_resources 1.)
      ~polls:(first_polls program) ~send ~seed_id:1 ()
  in
  (engine, exec)

let test_packed_send_is_list () =
  let program = Typecheck.check (Farm_almanac.Parser.program packed_source) in
  let sent = ref [] in
  let engine, _ =
    packed_exec `Compiled program "Sender" ~send:(fun _ _ v -> sent := v :: !sent)
  in
  Engine.run ~until:0.1 engine;
  Alcotest.(check bool) "sent every poll" true (List.length !sent >= 9);
  List.iter
    (fun v ->
      match v with
      | Value.List l ->
          Alcotest.(check int) "one counter per port" 6 (List.length l);
          List.iter
            (function
              | Value.Num _ -> () | v -> Alcotest.failf "element %s" (Value.to_string v))
            l
      | v -> Alcotest.failf "the harvester got %s, not a Value.List" (Value.to_string v))
    !sent

(* A compiled heavy-hitter seed, its packed [prev] checkpointed through
   the wire codec, restored into a fresh interpreter and a fresh compiled
   instance: every variable and the state agree after the restore and
   after both run on. *)
let test_packed_restore_engines () =
  let program = Typecheck.check (Farm_almanac.Parser.program Farm_tasks.Hh.hh.Farm_tasks.Task_common.source) in
  let run ?restore kind =
    packed_exec ?restore kind program "HH" ~send:(fun _ _ _ -> ())
  in
  let engine0, exec0 = run `Compiled in
  Engine.run ~until:0.05 engine0;
  let vars, state = Seed_exec.snapshot exec0 in
  List.iter
    (fun (k, v) ->
      if Value.plain v != v then Alcotest.failf "snapshot hands out a packed %s" k)
    vars;
  (match List.assoc_opt "prev" vars with
  | Some (Value.List (_ :: _)) -> ()
  | _ -> Alcotest.fail "prev is not a non-empty Value.List");
  let ck =
    Checkpoint.decode
      (Checkpoint.encode
         { Checkpoint.ck_seed = 1; ck_epoch = 0; ck_seq = 0; ck_full = true;
           ck_vars = vars; ck_removed = []; ck_state = state })
  in
  let restore = (ck.Checkpoint.ck_vars, ck.Checkpoint.ck_state) in
  let engine_i, exec_i = run ~restore `Interp in
  let engine_c, exec_c = run ~restore `Compiled in
  let same what =
    let show e =
      let vars, state = Seed_exec.snapshot e in
      state
      :: List.sort compare
           (List.map (fun (k, v) -> k ^ " = " ^ Value.to_string v) vars)
    in
    Alcotest.(check (list string)) what (show exec_i) (show exec_c)
  in
  same "restored";
  Alcotest.(check bool) "restored = checkpointed" true
    (vars_equal vars (fst (Seed_exec.snapshot exec_c)));
  Engine.run ~until:0.05 engine_i;
  Engine.run ~until:0.05 engine_c;
  same "after running on"

(* -- idempotent control-message handling --------------------------- *)

(* the seeder's control channel at [loss] and [dup]; [()] restores it *)
let set_ctrl seeder ?(loss = 0.) ?(dup = 0.) () =
  Control.set_faults (Seeder.control seeder) { Control.loss; delay = 0.; dup }

let test_ctrl_dup_idempotence () =
  (* a fully duplicating control plane: every message is delivered twice,
     but seeds and harvesters process each logical message exactly once *)
  let engine = Engine.create ~seed:19 () in
  let fabric = Fabric.create (Topology.linear ~n:2) in
  let seeder = Seeder.create engine fabric in
  set_ctrl seeder ~dup:1.0 ();
  let source =
    {|
machine Adj {
  place all;
  long count = 0;
  state s {
    when (recv long t from harvester) do {
      count = count + 1;
      send count to harvester;
    }
  }
}
|}
  in
  let harvester_spec =
    { Harvester.on_start = (fun ctx -> ctx.broadcast (Value.Num 7.));
      on_message = (fun _ ~from_switch:_ _ -> ()) }
  in
  let spec =
    { (Seeder.simple_spec ~name:"adj" ~source) with
      Seeder.ts_harvester = harvester_spec }
  in
  let task = deployed seeder spec in
  Engine.run ~until:0.5 engine;
  let seeds = Seeder.seeds seeder task in
  Alcotest.(check int) "both seeds placed" 2 (List.length seeds);
  List.iter
    (fun s ->
      (match Seed_exec.var s "count" with
      | Some (Value.Num n) ->
          Alcotest.(check (float 0.)) "broadcast handled exactly once" 1. n
      | _ -> Alcotest.fail "count unbound");
      Alcotest.(check bool) "duplicate inbound copies dropped" true
        (Seed_exec.duplicates_dropped s >= 1))
    seeds;
  let h = Seeder.harvester task in
  Alcotest.(check int) "one report per seed despite duplication" 2
    (Harvester.received_count h);
  Alcotest.(check bool) "harvester dropped the duplicate copies" true
    (Harvester.dup_dropped h >= 2)

(* -- a copy that outlives its instance -------------------------------- *)

let counter_source =
  {|
machine Cnt {
  place any;
  long count = 0;
  state s {
    when (recv long t from harvester) do { count = count + t; }
  }
}
|}

(* A counting seed whose harvester context the test drives by hand. *)
let counter_world ~seed =
  let engine = Engine.create ~seed () in
  let fabric = Fabric.create (Topology.linear ~n:2) in
  let seeder = Seeder.create engine fabric in
  set_ctrl seeder ~dup:1.0 ();
  let ctx = ref None in
  let spec =
    { (Seeder.simple_spec ~name:"cnt" ~source:counter_source) with
      Seeder.ts_harvester =
        { Harvester.on_start = (fun c -> ctx := Some c);
          on_message = (fun _ ~from_switch:_ _ -> ()) } }
  in
  let task = deployed seeder spec in
  match !ctx with
  | Some ctx -> (engine, seeder, task, ctx)
  | None -> Alcotest.fail "harvester not started"

let count_of s =
  match Seed_exec.var s "count" with
  | Some (Value.Num n) -> n
  | _ -> Alcotest.fail "count unbound"

let test_ctrl_dup_reinstantiated () =
  (* Every control message arrives twice, the copy 1 ms after the
     original.  The original reaches the seed's first instance; its
     switch crashes before the copy lands, so the copy reaches the
     re-placed instance, which has never taken the message and takes it
     once.  Exactly what a per-instance table of message ids decides. *)
  let engine, seeder, task, ctx = counter_world ~seed:23 in
  Engine.run ~until:0.1 engine;
  let first = List.hd (Seeder.seeds seeder task) in
  ctx.Harvester.broadcast (Value.Num 1.);
  Engine.run ~until:0.1005 engine;
  Alcotest.(check (float 0.)) "original taken by the first instance" 1.
    (count_of first);
  Seeder.crash_switch seeder (Seed_exec.node first);
  let second =
    match Seeder.seeds seeder task with
    | [ s ] -> s
    | _ -> Alcotest.fail "seed not re-placed"
  in
  Alcotest.(check bool) "a new instance" true
    (Seed_exec.epoch second > Seed_exec.epoch first);
  Alcotest.(check (float 0.)) "new instance starts fresh" 0. (count_of second);
  Engine.run ~until:0.2 engine;
  Alcotest.(check (float 0.)) "the copy is taken once by the new instance" 1.
    (count_of second);
  Alcotest.(check int) "nothing dropped there" 0
    (Seed_exec.duplicates_dropped second);
  (* a message sent to the new instance: original taken, copy dropped *)
  ctx.Harvester.broadcast (Value.Num 10.);
  Engine.run ~until:0.3 engine;
  Alcotest.(check (float 0.)) "next message taken once" 11. (count_of second);
  Alcotest.(check int) "its copy dropped" 1
    (Seed_exec.duplicates_dropped second);
  Alcotest.(check (float 0.)) "the dead instance took nothing more" 1.
    (count_of first)

let test_ctrl_dup_bounded () =
  (* Seed-side exactly-once keeps no state per message: after 10 000
     duplicated broadcasts the world holds what it held after 10.  Words
     reachable from the world are exact, so the tolerance only covers
     the engine's cell freelist and hashtable resizes (64 words).  A
     table of taken ids per instance grew by 48 080 words here. *)
  let engine, seeder, task, ctx = counter_world ~seed:29 in
  let broadcasts n =
    for _ = 1 to n do
      ctx.Harvester.broadcast (Value.Num 1.);
      Engine.run ~until:(Engine.now engine +. 0.002) engine
    done
  in
  let words () = Obj.reachable_words (Obj.repr (engine, seeder, task)) in
  broadcasts 10;
  let w10 = words () in
  broadcasts 9_990;
  let w10k = words () in
  let s = List.hd (Seeder.seeds seeder task) in
  Alcotest.(check (float 0.)) "every broadcast taken once" 10_000.
    (count_of s);
  Alcotest.(check int) "every copy dropped" 10_000
    (Seed_exec.duplicates_dropped s);
  if abs (w10k - w10) > 64 then
    Alcotest.failf "world grew from %d words after 10 broadcasts to %d \
                    after 10 000" w10 w10k

(* -- reviving a healthy switch is a no-op --------------------------- *)

let test_double_recovery_noop () =
  let engine = Engine.create ~seed:21 () in
  let fabric = Fabric.create (Topology.linear ~n:2) in
  let seeder = Seeder.create engine fabric in
  let task =
    deployed seeder (Seeder.simple_spec ~name:"c" ~source:counting_source)
  in
  Engine.run ~until:0.2 engine;
  let exec = List.hd (Seeder.seeds seeder task) in
  let before = Seeder.current_assignments seeder in
  let migrations = Seeder.migrations seeder in
  let epoch = Seed_exec.epoch exec in
  (* both switches are healthy: revival must change nothing, repeatedly *)
  Seeder.revive_switch seeder 0;
  Seeder.revive_switch seeder 0;
  Seeder.revive_switch seeder 1;
  Seeder.revive_switch seeder 1;
  Engine.run ~until:0.4 engine;
  Alcotest.(check bool) "same instance still running" true
    (match Seeder.seeds seeder task with
    | [ e ] -> e == exec && Seed_exec.is_alive e
    | _ -> false);
  Alcotest.(check int) "epoch unchanged" epoch (Seed_exec.epoch exec);
  Alcotest.(check bool) "assignments unchanged" true
    (Seeder.current_assignments seeder = before);
  Alcotest.(check int) "no migrations" migrations (Seeder.migrations seeder)

(* -- failure detection and automatic recovery ---------------------- *)

let heal_config ?(hb = 0.01) ?(timeout = 0.035) ?(ck = 0.02) () =
  { Seeder.default_config with
    auto_heal = true; heartbeat_interval = hb; detection_timeout = timeout;
    checkpoint_interval = ck }

let make_heal_world ?config ?(seed = 23) ?(source = counting_source) () =
  let engine = Engine.create ~seed () in
  let topo = Topology.spine_leaf ~spines:2 ~leaves:2 ~hosts_per_leaf:1 in
  let fabric = Fabric.create topo in
  let config = match config with Some c -> c | None -> heal_config () in
  let seeder = Seeder.create ~config engine fabric in
  let task = deployed seeder (Seeder.simple_spec ~name:"heal" ~source) in
  (engine, seeder, task)

let seed_count exec =
  match Seed_exec.var exec "count" with
  | Some (Value.Num n) -> n
  | _ -> Alcotest.fail "count unbound"

let test_auto_heal_detects_and_recovers () =
  let engine, seeder, task = make_heal_world () in
  Engine.run ~until:0.5 engine;
  let exec = List.hd (Seeder.seeds seeder task) in
  let home = Seed_exec.node exec in
  Alcotest.(check bool) "checkpoints shipped while running" true
    (Seeder.checkpoints_shipped seeder > 0);
  Alcotest.(check bool) "checkpoint bytes costed" true
    (Seeder.checkpoint_bytes seeder > 0.);
  Engine.schedule engine ~delay:0. (fun _ -> Seeder.crash_switch seeder home);
  Engine.run ~until:1. engine;
  (* the detector noticed within its timeout (+ one heartbeat of slack) *)
  Alcotest.(check int) "one detection" 1 (Seeder.detections seeder);
  Alcotest.(check int) "no false positives" 0 (Seeder.false_detections seeder);
  let dl = Healing.detection_latency (Seeder.healing seeder) in
  Alcotest.(check int) "latency recorded" 1 (Farm_sim.Metrics.Histogram.count dl);
  let latency = Farm_sim.Metrics.Histogram.mean dl in
  Alcotest.(check bool)
    (Printf.sprintf "detection latency %.4f within bound" latency)
    true
    (latency > 0.02 && latency < 0.035 +. 0.01 +. 0.002);
  (* the orphan was re-placed automatically, off the dead switch *)
  Alcotest.(check bool) "auto recovery happened" true
    (Healing.auto_recoveries (Seeder.healing seeder) >= 1);
  (match Seeder.seeds seeder task with
  | [ replacement ] ->
      Alcotest.(check bool) "moved off the crashed switch" true
        (Seed_exec.node replacement <> home);
      Alcotest.(check bool) "replacement polls again" true
        (seed_count replacement > 10.)
  | seeds -> Alcotest.failf "expected 1 seed, got %d" (List.length seeds));
  let rt = Seeder.recovery_time seeder in
  Alcotest.(check bool) "recovery within detection + re-placement" true
    (Farm_sim.Metrics.Histogram.count rt >= 1
    && Farm_sim.Metrics.Histogram.max rt < 0.035 +. 0.01 +. 0.005);
  Alcotest.(check (list int)) "no orphans left" []
    (Seeder.orphaned_seeds seeder);
  Alcotest.(check (list int)) "failure is on the books" [ home ]
    (Healing.failed_switches (Seeder.healing seeder))

let test_bounded_state_loss () =
  (* a crash loses at most one checkpoint interval of machine state: the
     count restored from the last checkpoint trails the pre-crash count by
     no more than interval/poll-period ticks (plus in-flight slack) *)
  let config = heal_config ~ck:0.05 () in
  let engine, seeder, task = make_heal_world ~config () in
  Engine.run ~until:0.4 engine;
  let exec = List.hd (Seeder.seeds seeder task) in
  let home = Seed_exec.node exec in
  let seed_id = Seed_exec.seed_id exec in
  let pre = ref 0. in
  Engine.schedule engine ~delay:0.1 (fun _ ->
      pre := seed_count exec;
      Seeder.crash_switch seeder home);
  (* stop after the crash but before detection: the seeder's stored
     checkpoint is the one recovery will restore from *)
  Engine.run ~until:0.52 engine;
  Alcotest.(check bool) "had accumulated state" true (!pre > 30.);
  let ck_count =
    match Seeder.last_checkpoint seeder seed_id with
    | Some (_, vars, state) ->
        Alcotest.(check string) "machine state checkpointed" "s" state;
        (match List.assoc_opt "count" vars with
        | Some (Value.Num n) -> n
        | _ -> Alcotest.fail "count not in checkpoint")
    | None -> Alcotest.fail "no checkpoint stored"
  in
  let lost = !pre -. ck_count in
  Alcotest.(check bool)
    (Printf.sprintf "lost %.0f ticks <= one interval" lost)
    true
    (lost >= 0. && lost <= (0.05 /. 0.01) +. 2.);
  Engine.run ~until:1. engine;
  (* and the replacement resumed from that checkpoint, not from zero *)
  match Seeder.seeds seeder task with
  | [ replacement ] ->
      Alcotest.(check bool) "resumed from the checkpoint" true
        (seed_count replacement >= ck_count +. 30.)
  | seeds -> Alcotest.failf "expected 1 seed, got %d" (List.length seeds)

let test_crash_during_recovery () =
  (* the switch reboots before the detector fires: the seed is re-pushed
     on the next heartbeat; a second crash, with no reboot, is then healed
     by the detector.  Epochs increase across both recoveries. *)
  let engine, seeder, task = make_heal_world ~config:(heal_config ~ck:0.02 ()) () in
  Engine.run ~until:0.3 engine;
  let exec = List.hd (Seeder.seeds seeder task) in
  let home = Seed_exec.node exec in
  let seed_id = Seed_exec.seed_id exec in
  Engine.schedule engine ~delay:0. (fun _ -> Seeder.crash_switch seeder home);
  Engine.run ~until:0.305 engine;
  Alcotest.(check (list int)) "crash is silent" [] (Healing.failed_switches (Seeder.healing seeder));
  Alcotest.(check (list int)) "seed orphaned" [ seed_id ]
    (Seeder.orphaned_seeds seeder);
  (* the reboot wins the race against the detector *)
  Seeder.revive_switch seeder home;
  Engine.run ~until:0.4 engine;
  Alcotest.(check int) "detector never fired" 0 (Seeder.detections seeder);
  Alcotest.(check int) "rejoined on heartbeat" 1 (Healing.auto_recoveries (Seeder.healing seeder));
  (match Seeder.seeds seeder task with
  | [ e ] ->
      Alcotest.(check int) "restarted in place" home (Seed_exec.node e);
      Alcotest.(check int) "epoch bumped by rejoin" 1 (Seed_exec.epoch e)
  | seeds -> Alcotest.failf "expected 1 seed, got %d" (List.length seeds));
  (* second crash: the switch stays down; the detector must heal it *)
  Engine.schedule engine ~delay:0. (fun _ -> Seeder.crash_switch seeder home);
  Engine.run ~until:0.8 engine;
  Alcotest.(check int) "detector healed the second crash" 1
    (Seeder.detections seeder);
  (match Seeder.seeds seeder task with
  | [ e ] ->
      Alcotest.(check bool) "moved off the dead switch" true
        (Seed_exec.node e <> home);
      Alcotest.(check int) "epoch bumped again" 2 (Seed_exec.epoch e)
  | seeds -> Alcotest.failf "expected 1 seed, got %d" (List.length seeds));
  Alcotest.(check (list int)) "no orphans left" []
    (Seeder.orphaned_seeds seeder)

let test_reboot_before_detection_is_true () =
  (* the home switch crashes and reboots 30 ms later, before a heartbeat
     of the new boot reaches the seeder: the detector still fires, and it
     declared a real crash, so it is counted with its latency — not as a
     false positive *)
  let engine, seeder, task = make_heal_world () in
  Engine.run ~until:0.3 engine;
  let home = Seed_exec.node (List.hd (Seeder.seeds seeder task)) in
  Seeder.crash_switch seeder home;
  Engine.schedule engine ~delay:0.03 (fun _ -> Seeder.revive_switch seeder home);
  Engine.run ~until:0.5 engine;
  Alcotest.(check int) "one detection" 1 (Seeder.detections seeder);
  Alcotest.(check int) "not a false positive" 0
    (Seeder.false_detections seeder);
  let dl = Healing.detection_latency (Seeder.healing seeder) in
  Alcotest.(check int) "latency recorded" 1
    (Farm_sim.Metrics.Histogram.count dl);
  Alcotest.(check bool) "latency within the detector's bound" true
    (Farm_sim.Metrics.Histogram.max dl < 0.035 +. 0.01 +. 0.002);
  Alcotest.(check int) "one seed live" 1
    (List.length (Seeder.seeds seeder task));
  Alcotest.(check (list int)) "no orphans left" []
    (Seeder.orphaned_seeds seeder)

(* -- checkpoint store: bounded under delta churn ------------------- *)

let test_checkpoint_store_bounded () =
  (* after the first full snapshot every checkpoint is a delta; however
     many merge into the seeder's store, it holds one entry per machine
     variable, exactly like the live instance *)
  let source =
    {|
machine Churn {
  place any;
  poll ticks = Poll { .ival = 0.01, .what = port ANY };
  long count = 0;
  long parity = 0;
  long steady = 7;
  state s {
    when (ticks as stats) do { count = count + 1; parity = 1 - parity; }
  }
}
|}
  in
  let config =
    { (heal_config ~ck:0.01 ()) with checkpoint_full_every = 1_000_000 }
  in
  let engine, seeder, task = make_heal_world ~config ~source () in
  let exec = List.hd (Seeder.seeds seeder task) in
  let seed_id = Seed_exec.seed_id exec in
  let live_vars = List.length (fst (Seed_exec.snapshot exec)) in
  let samples = ref 0 in
  ignore
    (Engine.every engine ~period:0.01 (fun _ ->
         match Seeder.last_checkpoint seeder seed_id with
         | None -> ()
         | Some (_, vars, _) ->
             incr samples;
             let names = List.map fst vars in
             Alcotest.(check int) "one store entry per variable" live_vars
               (List.length vars);
             Alcotest.(check int) "no duplicate entries" live_vars
               (List.length (List.sort_uniq String.compare names)))
      : Engine.timer);
  Engine.run ~until:1. engine;
  Alcotest.(check bool) "deltas merged for the whole run" true
    (!samples >= 90 && Seeder.checkpoints_shipped seeder >= 90);
  Alcotest.(check (option (float 0.))) "no gaps" (Some 0.)
    (Farm_sim.Metrics.Registry.value (Engine.metrics engine)
       "seeder.checkpoints.gaps")

(* -- false positives: zombies are fenced, never corrupt state ------ *)

let epochs_non_decreasing h =
  (* accepted_provenance is most-recent-first *)
  let by_seed = Hashtbl.create 8 in
  List.iter
    (fun (_, p) ->
      (* walking most-recent-first, epochs must never increase *)
      match Hashtbl.find_opt by_seed p.Harvester.p_seed with
      | Some newer when p.Harvester.p_epoch > newer -> Alcotest.fail
            (Printf.sprintf "seed %d accepted epoch %d after %d"
               p.Harvester.p_seed p.Harvester.p_epoch newer)
      | _ -> Hashtbl.replace by_seed p.Harvester.p_seed p.Harvester.p_epoch)
    (Harvester.accepted_provenance h)

let test_false_positive_zombie_fencing () =
  (* a control-plane brownout starves the detector of heartbeats: both
     switches are falsely declared dead, their live instances demoted to
     zombies.  When heartbeats resume the switches rejoin, zombies are
     terminated, and no stale-epoch report is ever accepted. *)
  let source =
    {|
machine Rep {
  place all;
  time tick = Time { .ival = 0.01 };
  long n = 0;
  state s { when (tick as t) do { n = n + 1; send n to harvester; } }
}
|}
  in
  let engine = Engine.create ~seed:29 () in
  let fabric = Fabric.create (Topology.linear ~n:2) in
  let config = heal_config ~timeout:0.025 () in
  let seeder = Seeder.create ~config engine fabric in
  let task = deployed seeder (Seeder.simple_spec ~name:"rep" ~source) in
  Engine.schedule engine ~delay:0.3 (fun _ ->
      set_ctrl seeder ~loss:1.0 ());
  Engine.schedule engine ~delay:0.36 (fun _ ->
      set_ctrl seeder ());
  Engine.run ~until:0.7 engine;
  Alcotest.(check int) "both declarations were false positives"
    (Seeder.detections seeder)
    (Seeder.false_detections seeder);
  Alcotest.(check bool) "switches were falsely declared" true
    (Seeder.false_detections seeder >= 2);
  Alcotest.(check (list int)) "everyone rejoined" []
    (Healing.failed_switches (Seeder.healing seeder));
  Alcotest.(check int) "no zombie left running" 0 (Healing.zombie_count (Seeder.healing seeder));
  Alcotest.(check bool) "zombies were fenced" true
    (Healing.zombies_fenced (Seeder.healing seeder) >= 2);
  Alcotest.(check int) "both seeds live again" 2
    (List.length (Seeder.seeds seeder task));
  Alcotest.(check (list int)) "no orphans" [] (Seeder.orphaned_seeds seeder);
  List.iter
    (fun e -> Alcotest.(check bool) "replacement epoch > 0" true
        (Seed_exec.epoch e >= 1))
    (Seeder.seeds seeder task);
  epochs_non_decreasing (Seeder.harvester task)

(* ------------------------------------------------------------------ *)
(* Overload protection                                                 *)
(* ------------------------------------------------------------------ *)

let test_token_bucket_pacing () =
  let open Overload in
  let b = Token_bucket.create ~rate:10. ~burst:2. in
  Alcotest.(check (float 1e-9)) "starts full" 2. (Token_bucket.level b ~now:0.);
  Alcotest.(check (float 1e-9)) "burst: first free" 0.
    (Token_bucket.reserve b ~now:0.);
  Alcotest.(check (float 1e-9)) "burst: second free" 0.
    (Token_bucket.reserve b ~now:0.);
  (* the bucket is empty: overdraw and pay with delay *)
  Alcotest.(check (float 1e-9)) "third paced one token" 0.1
    (Token_bucket.reserve b ~now:0.);
  Alcotest.(check (float 1e-9)) "debt accumulates" 0.2
    (Token_bucket.reserve b ~now:0.);
  (* idle time refills, capped at burst *)
  Alcotest.(check (float 1e-9)) "refill capped at burst" 2.
    (Token_bucket.level b ~now:10.);
  Alcotest.(check (float 1e-9)) "free again after refill" 0.
    (Token_bucket.reserve b ~now:10.)

let test_breaker_state_machine () =
  let open Overload in
  let b = Breaker.create ~threshold:3 ~cooldown:0.5 in
  Alcotest.(check bool) "closed allows" true (Breaker.allow b ~now:0.);
  Breaker.failure b ~now:0.;
  Breaker.failure b ~now:0.;
  Alcotest.(check bool) "below threshold stays closed" false
    (Breaker.is_open b);
  Breaker.failure b ~now:0.;
  Alcotest.(check bool) "threshold trips open" true (Breaker.is_open b);
  Alcotest.(check int) "open counted" 1 (Breaker.opens b);
  Alcotest.(check bool) "open rejects" false (Breaker.allow b ~now:0.1);
  Alcotest.(check bool) "cooldown expiry admits one probe" true
    (Breaker.allow b ~now:0.6);
  Alcotest.(check string) "half-open while probing" "half_open"
    (Breaker.state_name b);
  Alcotest.(check bool) "no second probe" false (Breaker.allow b ~now:0.6);
  Breaker.failure b ~now:0.6;
  Alcotest.(check bool) "probe failure re-opens" true (Breaker.is_open b);
  Alcotest.(check int) "re-open counted" 2 (Breaker.opens b);
  Alcotest.(check bool) "next probe after cooldown" true
    (Breaker.allow b ~now:1.2);
  Breaker.success b;
  Alcotest.(check string) "probe success closes" "closed"
    (Breaker.state_name b);
  Alcotest.(check bool) "closed allows again" true (Breaker.allow b ~now:1.2);
  (* success resets the consecutive-failure count *)
  Breaker.failure b ~now:1.3;
  Breaker.success b;
  Breaker.failure b ~now:1.4;
  Breaker.failure b ~now:1.4;
  Alcotest.(check bool) "failure streak broken by success" false
    (Breaker.is_open b)

let test_aimd_recovers_exactly () =
  let s = ref 1. in
  for _ = 1 to 10 do s := Overload.back_off !s done;
  Alcotest.(check (float 0.)) "floored" Overload.aimd_floor !s;
  let n = ref 0 in
  while !s < 1. do
    s := Overload.recover !s;
    incr n
  done;
  (* dyadic constants: the scale lands on exactly 1.0, in a bounded
     number of clear ticks, so a recovered seed is byte-identical to one
     that was never degraded *)
  Alcotest.(check (float 0.)) "returns to exactly 1.0" 1. !s;
  Alcotest.(check bool) "bounded recovery interval" true (!n <= 8)

(* A control-channel brownout shorter than the detection timeout: data
   sends are lost, breakers trip open and the retry cap bounds the storm —
   but heartbeats are never gated by the breaker, so the detector sees no
   gap and the open breaker must not trigger a false migration storm. *)
let test_breaker_brownout_no_migration_storm () =
  let source =
    {|
machine Chat {
  place all;
  time tick = Time { .ival = 0.001 };
  long n = 0;
  state s { when (tick as t) do { n = n + 1; send n to harvester; } }
}
|}
  in
  let engine = Engine.create ~seed:31 () in
  let fabric = Fabric.create (Topology.linear ~n:2) in
  let config =
    { Seeder.overload_defaults with
      Seeder.auto_heal = true;
      ctrl_protection =
        { Control.default_protection with
          Control.breaker_threshold = 3; max_inflight_retries = 1 } }
  in
  let seeder = Seeder.create ~config engine fabric in
  let task = deployed seeder (Seeder.simple_spec ~name:"chat" ~source) in
  Alcotest.(check bool) "protection armed" true
    (Farm_sim.Metrics.Registry.find (Engine.metrics engine)
       "seeder.ctrl.rate_limited"
    <> None);
  Engine.schedule engine ~delay:0.2 (fun _ ->
      set_ctrl seeder ~loss:1.0 ());
  Engine.schedule engine ~delay:0.215 (fun _ ->
      set_ctrl seeder ());
  Engine.run ~until:0.6 engine;
  Alcotest.(check bool) "breakers tripped" true
    (Control.breaker_opens (Seeder.control seeder) >= 1);
  Alcotest.(check bool) "retry storm was capped" true
    (Control.retry_capped (Seeder.control seeder) >= 1);
  Alcotest.(check bool) "messages were lost" true
    (Seeder.lost_messages seeder >= 1);
  (* the brownout was shorter than the detection timeout and heartbeats
     bypass the breaker: no detection, no migration, nobody fenced *)
  Alcotest.(check int) "no detections" 0 (Seeder.detections seeder);
  Alcotest.(check int) "no false detections" 0 (Seeder.false_detections seeder);
  Alcotest.(check int) "no migrations" 0 (Seeder.migrations seeder);
  Alcotest.(check (list int)) "no failed switches" []
    (Healing.failed_switches (Seeder.healing seeder));
  Alcotest.(check int) "no zombies" 0 (Healing.zombie_count (Seeder.healing seeder));
  Alcotest.(check int) "both seeds alive" 2
    (List.length (Seeder.seeds seeder task));
  (* once the channel heals, the half-open probes succeed and close *)
  List.iter
    (fun soil ->
      match
        Control.breaker_state (Seeder.control seeder) (Soil.node_id soil)
      with
      | None -> ()
      | Some s -> Alcotest.(check string) "breaker closed again" "closed" s)
    (Seeder.soils seeder)

(* qcheck: harvester fencing under bursty re-instantiation.  Random
   interleavings of fence raises and report storms (stale epochs, replays,
   bursts) are replayed against a reference model: no stale-epoch report
   is ever admitted, dedup is exact, and the counters balance — with the
   bounded inbox on, shedding changes *which* fresh reports land but never
   the fencing/dedup decisions. *)
type hop = Hfence of int * int | Hreport of int * int * int

let prop_harvester_fencing =
  let open QCheck2.Gen in
  let op =
    frequency
      [ (1, map2 (fun s e -> Hfence (s, e)) (int_range 0 2) (int_range 0 4));
        (4,
         map2
           (fun s (e, q) -> Hreport (s, e, q))
           (int_range 0 2)
           (pair (int_range 0 4) (int_range 0 9))) ]
  in
  let print ops =
    String.concat ";"
      (List.map
         (function
           | Hfence (s, e) -> Printf.sprintf "F%d:%d" s e
           | Hreport (s, e, q) -> Printf.sprintf "R%d:%d:%d" s e q)
         ops)
  in
  QCheck2.Test.make ~name:"harvester: fencing under bursty re-instantiation"
    ~count:500 ~print
    (list_size (int_range 1 120) op)
    (fun ops ->
      let mk () =
        Harvester.create Harvester.collector_spec
          { Harvester.send_to_seed = (fun ~switch:_ _ -> ());
            broadcast = (fun _ -> ());
            now = (fun () -> 0.);
            log = (fun _ -> ()) }
      in
      let h = mk () in
      (* same op stream against a bounded inbox: seeds compete for a
         5-report budget, so plenty of fresh reports get shed *)
      let hb = mk () in
      Harvester.set_overload hb { Harvester.window = 1.0; max_reports = 5 };
      (* reference model: per-seed fence + per-instance seen set (reset
         whenever the fence rises, like the runtime's dedup) *)
      let fences = Hashtbl.create 4 in
      let seen = Hashtbl.create 4 in
      let m_accepted = ref [] in
      let m_stale = ref 0 and m_dup = ref 0 and n_reports = ref 0 in
      let m_fence s e =
        let cur = Option.value (Hashtbl.find_opt fences s) ~default:(-1) in
        if e > cur then begin
          Hashtbl.replace fences s e;
          Hashtbl.replace seen s []
        end
      in
      let m_report s e q =
        incr n_reports;
        let cur = Option.value (Hashtbl.find_opt fences s) ~default:(-1) in
        if e < cur then incr m_stale
        else begin
          m_fence s e;
          let sq = Option.value (Hashtbl.find_opt seen s) ~default:[] in
          if List.mem q sq then incr m_dup
          else begin
            Hashtbl.replace seen s (q :: sq);
            m_accepted := (s, e, q) :: !m_accepted
          end
        end
      in
      List.iter
        (function
          | Hfence (s, e) ->
              Harvester.fence h ~seed_id:s ~epoch:e;
              Harvester.fence hb ~seed_id:s ~epoch:e;
              m_fence s e
          | Hreport (s, e, q) ->
              let p = { Harvester.p_seed = s; p_epoch = e; p_seq = q } in
              let v = Value.Num (float_of_int q) in
              Harvester.handle ~provenance:p h ~from_switch:s v;
              Harvester.handle ~provenance:p hb ~from_switch:s v;
              m_report s e q)
        ops;
      let prov hx =
        List.rev_map
          (fun (_, p) ->
            (p.Harvester.p_seed, p.Harvester.p_epoch, p.Harvester.p_seq))
          (Harvester.accepted_provenance hx)
      in
      (* unbounded inbox matches the model exactly *)
      if prov h <> List.rev !m_accepted then
        QCheck2.Test.fail_reportf "accepted reports diverge from model";
      if Harvester.received_count h <> List.length !m_accepted then
        QCheck2.Test.fail_reportf "received_count %d <> |accepted| %d"
          (Harvester.received_count h)
          (List.length !m_accepted);
      if Harvester.stale_dropped h <> !m_stale then
        QCheck2.Test.fail_reportf "stale %d <> model %d"
          (Harvester.stale_dropped h) !m_stale;
      if Harvester.dup_dropped h <> !m_dup then
        QCheck2.Test.fail_reportf "dup %d <> model %d"
          (Harvester.dup_dropped h) !m_dup;
      (* bounded inbox: fencing/dedup decisions are unchanged (shedding
         runs after them), the balance holds, and sheds account exactly
         for the difference in delivered reports *)
      List.iter
        (fun hx ->
          if
            Harvester.offered_count hx
            <> Harvester.received_count hx + Harvester.stale_dropped hx
               + Harvester.dup_dropped hx + Harvester.shed_count hx
          then
            QCheck2.Test.fail_reportf
              "balance broken: offered %d <> %d recv + %d stale + %d dup + \
               %d shed"
              (Harvester.offered_count hx)
              (Harvester.received_count hx)
              (Harvester.stale_dropped hx) (Harvester.dup_dropped hx)
              (Harvester.shed_count hx))
        [ h; hb ];
      if Harvester.offered_count h <> !n_reports then
        QCheck2.Test.fail_reportf "offered %d <> reports sent %d"
          (Harvester.offered_count h) !n_reports;
      if Harvester.stale_dropped hb <> !m_stale then
        QCheck2.Test.fail_reportf "bounded inbox changed stale decisions";
      if Harvester.dup_dropped hb <> !m_dup then
        QCheck2.Test.fail_reportf "bounded inbox changed dedup decisions";
      if
        Harvester.received_count hb + Harvester.shed_count hb
        <> Harvester.received_count h
      then
        QCheck2.Test.fail_reportf
          "sheds don't account for delivery gap: %d recv + %d shed <> %d"
          (Harvester.received_count hb)
          (Harvester.shed_count hb)
          (Harvester.received_count h);
      if
        Harvester.received_count hb
        <> List.length (Harvester.accepted_provenance hb)
      then
        QCheck2.Test.fail_reportf
          "bounded inbox received_count inconsistent with provenance";
      (* per-seed accepted epochs never go backwards, even under storms *)
      List.iter
        (fun hx ->
          let last = Hashtbl.create 4 in
          List.iter
            (fun (_, p) ->
              let prev =
                Option.value
                  (Hashtbl.find_opt last p.Harvester.p_seed)
                  ~default:(-1)
              in
              if p.Harvester.p_epoch < prev then
                QCheck2.Test.fail_reportf
                  "seed %d accepted epoch %d after %d" p.Harvester.p_seed
                  p.Harvester.p_epoch prev;
              Hashtbl.replace last p.Harvester.p_seed p.Harvester.p_epoch)
            (List.rev (Harvester.accepted_provenance hx)))
        [ h; hb ];
      true)

(* -- bounded fair-share PCIe queue vs its reference (qcheck) ------- *)

(* Reference: the two queues the soil once had side by side.  A bounded
   queue is modelled as it was first written — a list, oldest first,
   whose shedding victim is picked by rebuilding every seed's queued count
   on each arrival to a full queue.  An unbounded one ([max_queue =
   None]) is the FIFO that protection off runs: an arrival that would
   start more than [cap] after now, against a backlog summed at each
   arrival's PCIe factor, is refused.  Either way a transfer takes its
   duration at the factor in force when it starts.  It logs what the
   soil makes observable: transfers served, in order, every per-seed drop
   notification, and each transfer's completion time. *)
module Ref_queue = struct
  type req = {
    seq : int;
    bytes : float;
    prio : int;
    seeds : int list;
    tag : int;
  }

  type t = {
    engine : Engine.t;
    max_queue : int option;
    cap : float;
    mutable free_at : float;
    mutable factor : float;  (* PCIe slowdown, as [Soil.set_pcie_factor] *)
    times : (int, float) Hashtbl.t;  (* tag -> completion time *)
    prios : (int, int) Hashtbl.t;
    mutable queue : req list;
    mutable busy : bool;
    mutable next_seq : int;
    mutable offered : int;
    mutable completed : int;
    mutable shed : int;
    mutable peak : int;
    mutable dropped : int;
    per_seed : (int, int) Hashtbl.t;
    mutable log : string list;  (* newest first *)
  }

  let create engine ~max_queue ~cap =
    { engine; max_queue; cap; free_at = 0.; factor = 1.; times = Hashtbl.create 64;
      prios = Hashtbl.create 8; queue = []; busy = false;
      next_seq = 0; offered = 0; completed = 0; shed = 0; peak = 0;
      dropped = 0; per_seed = Hashtbl.create 8; log = [] }

  let priority t sid = Option.value (Hashtbl.find_opt t.prios sid) ~default:0

  let drop t seeds =
    t.dropped <- t.dropped + List.length seeds;
    let tbl = Hashtbl.create 4 in
    List.iter
      (fun sid ->
        Hashtbl.replace tbl sid
          (1 + Option.value (Hashtbl.find_opt tbl sid) ~default:0))
      seeds;
    Hashtbl.fold (fun sid n acc -> (sid, n) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    |> List.iter (fun (sid, n) ->
           Hashtbl.replace t.per_seed sid
             (n + Option.value (Hashtbl.find_opt t.per_seed sid) ~default:0);
           t.log <- Printf.sprintf "drop s%d x%d" sid n :: t.log)

  let queued_per_seed reqs =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun r ->
        List.iter
          (fun sid ->
            Hashtbl.replace tbl sid
              (1 + Option.value (Hashtbl.find_opt tbl sid) ~default:0))
          r.seeds)
      reqs;
    tbl

  let pick_victim reqs =
    let counts = queued_per_seed reqs in
    let share r =
      List.fold_left
        (fun acc sid ->
          max acc (Option.value (Hashtbl.find_opt counts sid) ~default:1))
        1 r.seeds
    in
    match reqs with
    | [] -> invalid_arg "pick_victim: empty"
    | first :: rest ->
        List.fold_left
          (fun v r ->
            if r.prio < v.prio then r
            else if r.prio > v.prio then v
            else
              let sr = share r and sv = share v in
              if sr > sv then r
              else if sr < sv then v
              else if r.seq > v.seq then r
              else v)
          first rest

  (* the soil's bandwidth: 8 Mbit/s, divided by a factor other than 1 *)
  let duration t bytes =
    bytes *. 8. /. (if t.factor = 1. then 8e6 else 8e6 /. t.factor)

  let serve t r =
    t.completed <- t.completed + 1;
    t.log <- Printf.sprintf "serve %d" r.tag :: t.log;
    Hashtbl.replace t.times r.tag (Engine.now t.engine)

  let rec pump t =
    if not t.busy then
      match t.queue with
      | [] -> ()
      | first :: rest ->
          let next =
            List.fold_left
              (fun best r -> if r.prio > best.prio then r else best)
              first rest
          in
          t.queue <- List.filter (fun r -> r.seq <> next.seq) t.queue;
          t.busy <- true;
          Engine.schedule t.engine ~delay:(duration t next.bytes) (fun _ ->
              t.busy <- false;
              serve t next;
              pump t)

  let enqueue_fifo t req =
    let now = Engine.now t.engine in
    let start = Float.max now t.free_at in
    if start -. now > t.cap then drop t req.seeds
    else begin
      t.free_at <- start +. duration t req.bytes;
      t.queue <- t.queue @ [ req ];
      pump t
    end

  let enqueue_bounded t req max_queue =
    t.offered <- t.offered + 1;
    let accepted =
      if List.length t.queue < max_queue then begin
        t.queue <- t.queue @ [ req ];
        true
      end
      else begin
        let victim = pick_victim (req :: t.queue) in
        t.shed <- t.shed + 1;
        drop t victim.seeds;
        if victim.seq = req.seq then false
        else begin
          t.queue <-
            List.filter (fun r -> r.seq <> victim.seq) t.queue @ [ req ];
          true
        end
      end
    in
    let depth = List.length t.queue + if t.busy then 1 else 0 in
    if depth > t.peak then t.peak <- depth;
    pump t;
    (* a refused arrival is dropped again by its caller *)
    if not accepted then drop t req.seeds

  let enqueue t ~bytes ~seeds ~tag =
    let prio =
      List.fold_left (fun acc sid -> max acc (priority t sid)) min_int
        (if seeds = [] then [ -1 ] else seeds)
    in
    let req = { seq = t.next_seq; bytes; prio; seeds; tag } in
    t.next_seq <- t.next_seq + 1;
    match t.max_queue with
    | None -> enqueue_fifo t req
    | Some max_queue -> enqueue_bounded t req max_queue
end

type queue_op =
  | Arrive of float * float * int list  (* time, bytes, owning seeds *)
  | Priority of float * int * int  (* time, seed, priority *)
  | Factor of float * float  (* time, PCIe factor *)

(* A bounded queue of 0-6 transfers, or the default config (unbounded)
   with a wait cap of 0 s to the default 1 s. *)
type queue_cfg = Bounded of int | Default of float

let gen_queue_ops =
  let open QCheck2.Gen in
  let seeds = list_size (int_range 0 3) (int_bound 4) in
  let op =
    frequency
      [ (8,
         map3
           (fun t b s -> Arrive (t, b, s))
           (float_bound_inclusive 0.03)
           (oneofl [ 16.; 128.; 1000.; 1408. ])
           seeds);
        (1,
         map3
           (fun t s p -> Priority (t, s, p))
           (float_bound_inclusive 0.03) (int_bound 4) (int_range (-1) 2));
        (1,
         map2
           (fun t f -> Factor (t, f))
           (float_bound_inclusive 0.03)
           (oneofl [ 0.5; 1.; 2.; 4. ])) ]
  in
  let cfg =
    frequency
      [ (3, map (fun n -> Bounded n) (int_range 0 6));
        (2, map (fun c -> Default c) (oneofl [ 0.; 0.002; 0.01; 1. ])) ]
  in
  pair cfg (list_size (int_range 1 120) op)

let prop_fair_share_queue_matches_reference =
  QCheck2.Test.make
    ~name:"fair-share PCIe queue = rebuild-per-arrival reference" ~count:300
    gen_queue_ops (fun (qcfg, ops) ->
      let config, max_queue, cap =
        match qcfg with
        | Bounded n ->
            ( { Soil.default_config with
                overload =
                  Some { Soil.default_overload with max_pcie_queue = n } },
              Some n, infinity )
        | Default cap ->
            ({ Soil.default_config with max_poll_queue_delay = cap }, None, cap)
      in
      let engine, _sw, soil = make_soil ~config () in
      let rq = Ref_queue.create engine ~max_queue ~cap in
      let log = ref [] in
      let times = Hashtbl.create 64 in
      for sid = 0 to 4 do
        Soil.on_poll_drop soil ~seed_id:sid (fun n ->
            log := Printf.sprintf "drop s%d x%d" sid n :: !log)
      done;
      List.iteri
        (fun tag op ->
          match op with
          | Arrive (time, bytes, seeds) ->
              Engine.schedule engine ~delay:time (fun _ ->
                  Soil.transfer soil ~bytes ~seeds (fun () ->
                      log := Printf.sprintf "serve %d" tag :: !log;
                      Hashtbl.replace times tag (Engine.now engine));
                  Ref_queue.enqueue rq ~bytes ~seeds ~tag)
          | Priority _ when max_queue = None ->
              (* the old FIFO ignored priorities *)
              ()
          | Priority (time, sid, p) ->
              Engine.schedule engine ~delay:time (fun _ ->
                  Soil.set_seed_priority soil ~seed_id:sid p;
                  Hashtbl.replace rq.prios sid p)
          | Factor (time, f) ->
              Engine.schedule engine ~delay:time (fun _ ->
                  Soil.set_pcie_factor soil f;
                  rq.factor <- f))
        ops;
      Engine.run ~until:1. engine;
      let per_seed sid =
        Option.map int_of_float
          (Farm_sim.Metrics.Registry.value (Engine.metrics engine)
             (Printf.sprintf "soil.0.polls.dropped.seed%d" sid))
      in
      let stats_match =
        match (Soil.overload_stats soil, max_queue) with
        | None, None -> true
        | Some stats, Some _ ->
            stats.o_offered = rq.offered
            && stats.o_completed = rq.completed
            && stats.o_shed = rq.shed
            && stats.o_pending = 0
            && stats.o_queue_peak = rq.peak
        | Some _, None | None, Some _ -> false
      in
      !log = rq.log
      && stats_match
      && Hashtbl.length times = Hashtbl.length rq.times
      && Hashtbl.fold
           (fun tag expected ok ->
             ok
             &&
             match Hashtbl.find_opt times tag with
             | Some got -> Float.equal got expected
             | None -> false)
           rq.times true
      && (Soil.poll_stats soil).dropped = rq.dropped
      && List.for_all
           (fun sid -> per_seed sid = Hashtbl.find_opt rq.per_seed sid)
           [ 0; 1; 2; 3; 4 ])

(* Protection off is the protected code at unlimited limits, and must not
   show.  A default world registers none of the protection metrics and
   keeps no queue accounting (the armed world is the control); an adaptive
   seed on a default soil that drops its polls never backs off, although
   its first drop sees an infinite gap since the last back-off. *)
let test_unlimited_limits_inert () =
  let protection_metrics config =
    let engine, seeder, _ = make_heal_world ~config () in
    Engine.run ~until:0.2 engine;
    let has pre suf name =
      String.starts_with ~prefix:pre name && String.ends_with ~suffix:suf name
    in
    let families =
      [ has "soil." ".polls.shed"; has "soil." ".pressure";
        has "seeder.ctrl." ""; has "seeder.pressure." "";
        has "harvester." ".offered"; has "harvester." ".shed";
        has "seed." ".degradation" ]
    in
    let names = Farm_sim.Metrics.Registry.names (Engine.metrics engine) in
    ( List.map (fun f -> List.exists f names) families,
      List.filter_map Soil.overload_stats (Seeder.soils seeder) )
  in
  let off, off_stats = protection_metrics Seeder.default_config in
  Alcotest.(check (list bool)) "default world: no protection metric"
    (List.map (fun _ -> false) off) off;
  Alcotest.(check int) "default world: no overload stats" 0
    (List.length off_stats);
  let on, on_stats = protection_metrics Seeder.overload_defaults in
  Alcotest.(check (list bool)) "armed world: every protection metric"
    (List.map (fun _ -> true) on) on;
  Alcotest.(check bool) "armed world: overload stats" true (on_stats <> []);
  (* 64 ports x 16 B every 0.1 ms is ten times the bus: the FIFO backlog
     reaches its 1 s cap and polls are dropped *)
  let engine = Engine.create () in
  let soil = Soil.create engine (Switch_model.create ~id:0 ~ports:64 ()) in
  let source =
    {|
machine Flood {
  place all;
  poll ticks = Poll { .ival = 0.0001, .what = port ANY };
  state s { when (ticks as stats) do { } }
}
|}
  in
  let program = Typecheck.check (Farm_almanac.Parser.program source) in
  let polls = first_polls program in
  let s =
    Seed_exec.deploy ~soil
      ~plan:
        (Farm_almanac.Engine.prepare ~engine:`Compiled ~program
           ~machine:"Flood")
      ~adaptive:[ "ticks" ]
      ~resources:(Array.make Farm_almanac.Analysis.n_resources 1.)
      ~polls ~send:(fun _ _ _ -> ()) ~seed_id:3 ()
  in
  Engine.run ~until:1.5 engine;
  Alcotest.(check bool) "polls dropped" true (Seed_exec.poll_drops s > 0);
  Alcotest.(check (float 0.)) "no back-off" 0. (Seed_exec.degradation s);
  Alcotest.(check (option (float 0.))) "no degradation gauge" None
    (Farm_sim.Metrics.Registry.value (Engine.metrics engine)
       "seed.3.degradation")

(* ------------------------------------------------------------------ *)
(* Canonical digest coverage                                           *)
(* ------------------------------------------------------------------ *)

let marker_source_at place =
  {|
machine Marker {
  place |} ^ place ^ {|;
  poll ticks = Poll { .ival = 0.01, .what = port ANY };
  long count = 0;
  long mark = 1;
  state s {
    when (ticks as stats) do { count = count + 1; }
    when (recv long v from harvester) do { mark = v; }
  }
}
|}

let marker_source = marker_source_at "any"

(* Each row touches exactly one component of a settled healing world:
   [~perturbed:false] is the neutral action, [~perturbed:true] the one
   that must change [Seeder.digest].  Rows are built so that no other
   component sees the difference (same counts, same %h widths), so a
   component dropped from the digest fails its own row. *)
let digest_rows =
  let the_seed seeder task = List.hd (Seeder.seeds seeder task) in
  let mark seeder task v =
    Seed_exec.deliver (the_seed seeder task)
      ~from:Farm_almanac.Host.From_harvester (Value.Num v)
  in
  let idle_switches seeder task =
    let home = Seed_exec.node (the_seed seeder task) in
    List.filter (fun n -> n <> home)
      (List.map Soil.node_id (Seeder.soils seeder))
  in
  let idle_switch seeder task = List.hd (idle_switches seeder task) in
  [ ( "registry counter",
      fun ~perturbed (engine, _, _) ->
        if perturbed then
          Farm_sim.Metrics.Counter.add
            (Farm_sim.Metrics.Registry.counter (Engine.metrics engine)
               "seeder.collector.bytes")
            1. );
    ( "harvester report",
      fun ~perturbed (_, seeder, task) ->
        let e = the_seed seeder task in
        Harvester.handle (Seeder.harvester task)
          ~provenance:
            { Harvester.p_seed = Seed_exec.seed_id e;
              p_epoch = Seed_exec.epoch e;
              p_seq = (if perturbed then 1_001 else 1_000) }
          ~from_switch:(Seed_exec.node e) Value.Unit );
    ( "seed variable",
      fun ~perturbed (_, seeder, task) ->
        mark seeder task (if perturbed then 4. else 2.) );
    ( "checkpoint store",
      (* the store keeps the shipped mark; the live seed moves on to the
         same final value in both worlds *)
      fun ~perturbed (engine, seeder, task) ->
        mark seeder task (if perturbed then 8. else 2.);
        Engine.run ~until:(Engine.now engine +. 0.05) engine;
        mark seeder task 4. );
    ( "fabric flow",
      fun ~perturbed (engine, seeder, _) ->
        if perturbed then
          ignore
            (Fabric.start_flow (Seeder.fabric seeder) ~time:(Engine.now engine)
               ~tuple:
                 { Flow.src = Farm_net.Ipaddr.of_string "10.1.1.10";
                   dst = Farm_net.Ipaddr.of_string "10.2.1.10"; sport = 1234;
                   dport = 80; proto = Flow.Tcp }
               ~rate:1_000. ()) );
    ( "failed switch",
      (* the detector declares a crashed idle switch failed; it is revived
         before a heartbeat can rejoin it, so only [failed] tells the two
         idle switches apart *)
      fun ~perturbed (engine, seeder, task) ->
        let node =
          List.nth (idle_switches seeder task) (if perturbed then 1 else 0)
        in
        Seeder.crash_switch seeder node;
        Engine.run ~until:(Engine.now engine +. 0.06) engine;
        Seeder.revive_switch seeder node );
    ( "down switch",
      fun ~perturbed (_, seeder, task) ->
        if perturbed then Seeder.crash_switch seeder (idle_switch seeder task) );
    ( "soil pcie_factor",
      fun ~perturbed (_, seeder, _) ->
        if perturbed then Soil.set_pcie_factor (List.hd (Seeder.soils seeder)) 2.
    ) ]

(* The control-channel and inbox protection state, live in every run:
   a marker seed on every switch, a bounded harvester inbox, and the
   harvester's capabilities kept for the rows to send with.  Sending the
   seeds their initial mark changes no seed state. *)
let make_protection_world ?(ctrl_protection = Control.unlimited) () =
  let engine = Engine.create ~seed:29 () in
  let fabric =
    Fabric.create (Topology.spine_leaf ~spines:2 ~leaves:2 ~hosts_per_leaf:1)
  in
  let config =
    { Seeder.default_config with
      ctrl_protection;
      harvester_overload = Harvester.default_overload }
  in
  let seeder = Seeder.create ~config engine fabric in
  let ctx = ref None in
  let spec =
    { (Seeder.simple_spec ~name:"marker" ~source:(marker_source_at "all")) with
      Seeder.ts_harvester =
        { Harvester.collector_spec with on_start = (fun c -> ctx := Some c) } }
  in
  let task = deployed seeder spec in
  (engine, seeder, task, Option.get !ctx)

(* Rows over [make_protection_world], built like [digest_rows]: the two
   worlds differ only in which switch or window the protection state
   lands on. *)
let two_switches seeder =
  match List.map Soil.node_id (Seeder.soils seeder) with
  | a :: b :: _ -> (a, b)
  | _ -> Alcotest.fail "need two switches"

let protection_rows =
  [ ( "breaker failures",
      (* every try of one message is lost: six failures on its switch *)
      fun ~perturbed (engine, seeder, _, (ctx : Harvester.ctx)) ->
        let a, b = two_switches seeder in
        set_ctrl seeder ~loss:1. ();
        ctx.send_to_seed ~switch:(if perturbed then b else a) (Value.Num 1.);
        Engine.run ~until:(Engine.now engine +. 0.1) engine;
        set_ctrl seeder () );
    ( "in-flight retry",
      (* one lost message awaits its retry; delivered messages to both
         switches close both breakers again *)
      fun ~perturbed (engine, seeder, _, (ctx : Harvester.ctx)) ->
        let a, b = two_switches seeder in
        set_ctrl seeder ~loss:1. ();
        ctx.send_to_seed ~switch:(if perturbed then b else a) (Value.Num 1.);
        set_ctrl seeder ();
        ctx.send_to_seed ~switch:a (Value.Num 1.);
        ctx.send_to_seed ~switch:b (Value.Num 1.);
        Engine.run ~until:(Engine.now engine +. 0.0005) engine );
    ( "harvester window admits",
      (* the same report is admitted; reopening the window before or
         after it decides whether the window holds it *)
      fun ~perturbed (_, seeder, task, _) ->
        let h = Seeder.harvester task in
        let e = List.hd (Seeder.seeds seeder task) in
        let report () =
          Harvester.handle h
            ~provenance:
              { Harvester.p_seed = Seed_exec.seed_id e;
                p_epoch = Seed_exec.epoch e; p_seq = 1_000 }
            ~from_switch:(Seed_exec.node e) Value.Unit
        in
        let reopen () =
          Harvester.set_overload h Harvester.default_overload
        in
        if perturbed then (reopen (); report ()) else (report (); reopen ()) ) ]

(* -- control retries: the per-message and per-switch bounds -------- *)

(* A traced channel on a bare engine that loses every message, its
   retries bounded by [max_inflight_retries] alone: no breaker, jitter
   or pacing. *)
let lossy_channel ~bound =
  let engine = Engine.create () in
  let tr = Farm_sim.Trace.create () in
  Engine.set_tracer engine (Some tr);
  let c =
    Control.create engine
      { Control.default_protection with
        rate_limit = infinity; burst = infinity; breaker_threshold = max_int;
        retry_jitter = 0.; max_inflight_retries = bound }
  in
  Control.set_faults c { Control.perfect with loss = 1. };
  (engine, tr, c)

(* the in-flight retries to [node], as the channel's digest prints them *)
let inflight_in_digest c node =
  let b = Buffer.create 64 in
  Control.digest c b;
  let prefix = Printf.sprintf "ctrl %d " node in
  String.split_on_char '\n' (Buffer.contents b)
  |> List.find_map (fun line ->
         if String.starts_with ~prefix line then
           List.find_map
             (fun field -> Scanf.sscanf_opt field "inflight=%d%!" Fun.id)
             (String.split_on_char ' ' line)
         else None)
  |> Option.value ~default:0

(* the seeder-track events of a trace, as (time, name) *)
let seeder_events tr =
  List.filter_map
    (fun (e : Farm_sim.Trace.event) ->
      if e.cat = "seeder" then Some (e.ts, e.name) else None)
    (Farm_sim.Trace.events tr)

let test_retry_cap_per_message () =
  (* one message is tried at 0 and retransmitted [max_retries] times, try
     k + 1 following try k after [latency + retry_backoff * 2^k], then
     counted lost once *)
  let engine, tr, c = lossy_channel ~bound:8 in
  Control.send c ~dest:0 ~key:0 (fun () -> Alcotest.fail "delivered");
  Engine.run engine;
  let gap k = Control.latency +. (Control.retry_backoff *. (2. ** float k)) in
  let rec tries k at =
    if k = Control.max_retries then [ (at, "ctrl_lost") ]
    else (at, "ctrl_retry") :: tries (k + 1) (at +. gap k)
  in
  Alcotest.(check (list (pair (float 1e-12) string))) "try times"
    (tries 0 0.) (seeder_events tr);
  Alcotest.(check (triple int int int)) "capped, retried, lost"
    (0, Control.max_retries, 1)
    Control.(retry_capped c, retransmissions c, lost_messages c)

let test_oneshot_ungated () =
  (* one send per second and a breaker that opens on one failure: after
     an absent unicast to switch 0, unicasts are refused there and paced
     elsewhere, while one-shots arrive one latency later and are never
     retried *)
  let engine = Engine.create () in
  let c =
    Control.create engine
      { Control.default_protection with
        rate_limit = 1.; burst = 1.; breaker_threshold = 1;
        breaker_cooldown = 10.; retry_jitter = 0. }
  in
  Control.send c ~dest:0 (fun () -> `Absent);
  Engine.run ~until:0.1 engine;
  Control.send c ~dest:0 (fun () -> `Delivered);
  Control.send c ~dest:1 (fun () -> `Delivered);
  let gates () =
    Control.(retransmissions c, breaker_dropped c, rate_limited c)
  in
  Alcotest.(check (triple int int int)) "unicasts gated" (1, 2, 1) (gates ());
  let arrivals = ref [] in
  let oneshot () =
    Control.oneshot c (fun () -> arrivals := Engine.now engine :: !arrivals)
  in
  oneshot ();
  oneshot ();
  Control.set_faults c { Control.perfect with loss = 1. };
  oneshot ();
  Engine.run ~until:0.2 engine;
  Alcotest.(check (list (float 0.))) "one-shots: one latency, lossy one gone"
    [ 0.1 +. Control.latency; 0.1 +. Control.latency ] !arrivals;
  Alcotest.(check (triple int int int)) "one-shots ungated" (1, 2, 1)
    (gates ())

let test_retry_jitter_keys_apart () =
  (* a report and a seed message sent together, both lost to the end:
     seed messages and reports count their own keys, and equal counts
     must not draw equal jitter, so the three messages give up at three
     different times *)
  let engine, seeder, _, (ctx : Harvester.ctx) =
    make_protection_world
      ~ctrl_protection:
        { Control.default_protection with breaker_threshold = max_int }
      ()
  in
  let tr = Farm_sim.Trace.create () in
  Engine.set_tracer engine (Some tr);
  let a, b = two_switches seeder in
  set_ctrl seeder ~loss:1. ();
  (* seed messages 0 and 1, then report 1 *)
  ctx.send_to_seed ~switch:a (Value.Num 1.);
  ctx.send_to_seed ~switch:a (Value.Num 1.);
  Seeder.inject_report_storm seeder ~node:b ~reports:1;
  Engine.run ~until:0.1 engine;
  let lost = List.filter (fun (_, e) -> e = "ctrl_lost") (seeder_events tr) in
  Alcotest.(check int) "three losses at three times" 3
    (List.length (List.sort_uniq compare lost))

let test_retry_inflight_bound () =
  (* five messages to one switch at once, all lost, three retry slots:
     two are capped at once; the other three retry to exhaustion without
     the switch's in-flight count ever passing the bound *)
  let bound = 3 and sends = 5 in
  let engine, _, c = lossy_channel ~bound in
  for _ = 1 to sends do
    Control.send c ~dest:0 (fun () -> `Delivered)
  done;
  Alcotest.(check int) "slots full mid-flight" bound (inflight_in_digest c 0);
  let peak = ref 0 in
  let probe =
    Engine.every engine ~period:0.0001 (fun _ ->
        peak := max !peak (inflight_in_digest c 0))
  in
  Engine.run ~until:0.1 engine;
  Engine.cancel probe;
  Alcotest.(check int) "in-flight peak is the bound" bound !peak;
  Alcotest.(check int) "drained" 0 (inflight_in_digest c 0);
  Alcotest.(check (triple int int int)) "capped, retried, lost"
    (sends - bound, bound * Control.max_retries, sends)
    Control.(retry_capped c, retransmissions c, lost_messages c)

(* -- id-keyed stores: every walk visits ascending ids ------------- *)

let test_control_digest_order () =
  (* breakers and in-flight retries created on switches in scrambled
     order: three switches retry to exhaustion (breaker only), then two
     more hold a retry each; the digest lists them by switch id *)
  let engine, _, c = lossy_channel ~bound:8 in
  let send dests =
    List.iter (fun d -> Control.send c ~dest:d (fun () -> `Delivered)) dests
  in
  send [ 9; 3; 12 ];
  Engine.run engine;
  send [ 7; 1 ];
  let b = Buffer.create 128 in
  Control.digest c b;
  Alcotest.(check string) "ascending switch ids"
    "ctrl 1 fails=1 inflight=1\nctrl 3 fails=6\nctrl 7 fails=1 inflight=1\n\
     ctrl 9 fails=6\nctrl 12 fails=6\n"
    (Buffer.contents b)

let test_healing_switch_order () =
  let make detector =
    let engine = Engine.create () in
    let control = Control.create engine Control.unlimited in
    let h =
      Healing.create engine control detector ~full_every:1
        ~fail_over:(fun _ -> 0) ~reoptimize:ignore ~repush:(fun _ -> 0)
    in
    (engine, h)
  in
  let views h = (Healing.down_switches h, Healing.failed_switches h) in
  let check msg down failed h =
    Alcotest.(check (pair (list int) (list int))) msg (down, failed) (views h)
  in
  (* the oracle declares each crash as it happens, in crash order *)
  let _, h = make Healing.oracle in
  List.iter (Healing.crash h) [ 7; 2; 11; 4 ];
  check "oracle: crashed" [ 2; 4; 7; 11 ] [ 2; 4; 7; 11 ] h;
  List.iter (Healing.revive h) [ 11; 2 ];
  check "oracle: revived" [ 4; 7 ] [ 4; 7 ] h;
  (* heartbeats: declarations follow the sweep's scrambled node list, and
     a revived switch stays declared until its next heartbeat lands *)
  let engine, h =
    make
      (Healing.heartbeat ~interval:0.01 ~timeout:0.05 ~checkpoint_interval:0.)
  in
  Healing.start h ~nodes:[ 9; 4; 0; 11; 7; 2; 5 ];
  List.iter (Healing.crash h) [ 7; 11; 2; 4 ];
  check "heartbeat: crashed" [ 2; 4; 7; 11 ] [] h;
  Engine.run ~until:0.2 engine;
  check "heartbeat: declared" [ 2; 4; 7; 11 ] [ 2; 4; 7; 11 ] h;
  List.iter (Healing.revive h) [ 11; 2 ];
  check "heartbeat: revived" [ 4; 7 ] [ 2; 4; 7; 11 ] h;
  Engine.run ~until:0.3 engine;
  check "heartbeat: rejoined" [ 4; 7 ] [ 4; 7 ] h

let test_soil_pressure_order () =
  (* a CPU watermark below any utilization makes every monitor tick high *)
  let engine = Engine.create () in
  let overload = { Soil.default_overload with cpu_high = neg_infinity } in
  let soil =
    Soil.create
      ~config:{ Soil.default_config with overload = Some overload }
      engine
      (Switch_model.create ~id:0 ~ports:4 ())
  in
  let calls = ref [] in
  let hook id =
    Soil.on_pressure soil ~seed_id:id (fun ~high ->
        calls := (id, high) :: !calls)
  in
  List.iter (Soil.attach_seed soil) [ 8; 2; 5; 2; 3 ];
  List.iter hook [ 8; 11; 3; 2; 5 ];
  Soil.detach_seed soil 3;
  (* one of 2's two registrations: both of its hooks go *)
  Soil.detach_seed soil 2;
  Soil.detach_seed soil 42;
  Alcotest.(check int) "registrations left" 3 (Soil.seed_count soil);
  let tick () =
    calls := [];
    Engine.run ~until:(Engine.now engine +. overload.pressure_interval) engine;
    List.rev !calls
  in
  Alcotest.(check (list (pair int bool))) "attached seeds with a hook"
    [ (5, true); (8, true) ] (tick ());
  hook 2;
  hook 3;
  Alcotest.(check (list (pair int bool))) "re-hooked, each seed once"
    [ (2, true); (5, true); (8, true) ] (tick ())

let test_harvester_window_order () =
  let now = ref 0. in
  let h =
    Harvester.create Harvester.collector_spec
      { Harvester.send_to_seed = (fun ~switch:_ _ -> ()); broadcast = ignore;
        now = (fun () -> !now); log = ignore }
  in
  Harvester.set_overload h { Harvester.window = 1.; max_reports = 6 };
  List.iter (fun s -> Harvester.fence h ~seed_id:s ~epoch:0) [ 7; 2; 4 ];
  let seq = ref 0 in
  let report s =
    incr seq;
    Harvester.handle h ~from_switch:s (Value.Num 1.)
      ~provenance:{ Harvester.p_seed = s; p_epoch = 0; p_seq = !seq }
  in
  (* three fenced seeds share 6 reports: 2 each; the third of 7 and of 4
     are shed *)
  List.iter report [ 7; 7; 4; 7; 2; 4; 4 ];
  Alcotest.(check (list (pair int int))) "window admits by seed id"
    [ (2, 1); (4, 2); (7, 2) ] (Harvester.window_admits h);
  Alcotest.(check int) "sheds" 2 (Harvester.shed_count h);
  now := 1.;
  List.iter report [ 4; 2 ];
  Alcotest.(check (list (pair int int))) "next window starts empty"
    [ (2, 1); (4, 1) ] (Harvester.window_admits h);
  Alcotest.(check int) "no new shed" 2 (Harvester.shed_count h)

(* A detached seed's soil record outlives it (queued requests share its
   fair-share count) but must not keep its hooks' closures alive. *)
let test_soil_detach_releases_hooks () =
  let engine = Engine.create () in
  let soil = Soil.create engine (Switch_model.create ~id:0 ~ports:4 ()) in
  let w = Weak.create 2 in
  let[@inline never] attach () =
    let drop = Array.make (Sys.opaque_identity 8) 0 in
    let pressure = Array.make (Sys.opaque_identity 8) 0 in
    Weak.set w 0 (Some drop);
    Weak.set w 1 (Some pressure);
    Soil.attach_seed soil 3;
    Soil.on_poll_drop soil ~seed_id:3 (fun n -> drop.(0) <- n);
    Soil.on_pressure soil ~seed_id:3 (fun ~high:_ -> pressure.(0) <- 1)
  in
  attach ();
  Gc.full_major ();
  Alcotest.(check (pair bool bool)) "attached seed keeps its hooks"
    (true, true) (Weak.check w 0, Weak.check w 1);
  Soil.detach_seed soil 3;
  Gc.full_major ();
  Alcotest.(check (pair bool bool)) "detached seed's hooks released"
    (false, false) (Weak.check w 0, Weak.check w 1);
  Alcotest.(check int) "no registration left" 0
    (Soil.seed_count (Sys.opaque_identity soil))

let check_digest_rows make rows =
  let digest_after ~perturbed f =
    let w, seeder = make () in
    f ~perturbed w;
    Seeder.digest seeder
  in
  List.iter
    (fun (name, f) ->
      let base = digest_after ~perturbed:false f in
      Alcotest.(check string)
        (name ^ ": equal worlds, equal digests")
        base
        (digest_after ~perturbed:false f);
      Alcotest.(check bool)
        (name ^ ": perturbed world differs")
        true
        (base <> digest_after ~perturbed:true f))
    rows

let test_digest_coverage () =
  check_digest_rows
    (fun () ->
      let ((engine, seeder, _) as w) =
        make_heal_world ~source:marker_source ()
      in
      Engine.run ~until:0.3 engine;
      (w, seeder))
    digest_rows;
  check_digest_rows
    (fun () ->
      let ((engine, seeder, _, _) as w) = make_protection_world () in
      Engine.run ~until:0.3 engine;
      (w, seeder))
    protection_rows

(* -- fork: a copied world runs on as the original (qcheck) ---------- *)

(* A 2x4 world with four catalog tasks under background traffic; the
   overload variant arms every protection layer and self-healing, and
   crashes a switch at 0.5 s. *)
let fork_world ~overload seed =
  let seeder_config =
    if overload then { Seeder.overload_defaults with Seeder.auto_heal = true }
    else Seeder.default_config
  in
  let w =
    Farm.World.create ~seed ~spines:2 ~leaves:4 ~hosts_per_leaf:1 ~seeder_config ()
  in
  List.iter
    (fun name ->
      match Farm.World.deploy_catalog_task w name with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "deploy %s: %s" name e)
    [ "heavy-hitter"; "tcp-syn-flood"; "link-failure"; "flow-size-distribution" ];
  Farm.World.background_traffic ~flows:40 w;
  if overload then begin
    let node = List.hd (List.rev (Topology.switch_ids w.Farm.World.topology)) in
    Engine.schedule w.engine ~delay:0.5 (fun _ -> Seeder.crash_switch w.seeder node)
  end;
  w

let fork_horizon = 2.

(* Run to a drawn instant, copy the whole world with [Marshal], run both
   to the horizon: each digest equals an unforked run's.  A marker or
   counter kept by identity or outside the world makes the copy diverge
   or fail. *)
let prop_fork_any_instant =
  QCheck2.Test.make ~name:"fork: a copied world runs to the unforked digest"
    ~count:3 ~long_factor:5
    ~print:QCheck2.Print.(pair int float)
    QCheck2.Gen.(pair (int_range 1 10_000) (float_range 0.05 (fork_horizon -. 0.05)))
    (fun (seed, at) ->
      List.for_all
        (fun overload ->
          let unforked = fork_world ~overload seed in
          Farm.World.run ~until:fork_horizon unforked;
          let expect = Seeder.digest unforked.seeder in
          let w = fork_world ~overload seed in
          Farm.World.run ~until:at w;
          let copy : Farm.World.t =
            Marshal.from_string (Marshal.to_string w [ Marshal.Closures ]) 0
          in
          Farm.World.run ~until:fork_horizon w;
          Farm.World.run ~until:fork_horizon copy;
          Seeder.digest w.seeder = expect && Seeder.digest copy.seeder = expect)
        [ false; true ])

let () =
  Alcotest.run "farm_runtime"
    [ ( "models",
        [ Alcotest.test_case "cpu accounting" `Quick test_cpu_model_accounting;
          Alcotest.test_case "ipc latency shape" `Quick test_ipc_latency_shape ] );
      ( "soil",
        [ Alcotest.test_case "poll delivery" `Quick test_soil_poll_delivery;
          Alcotest.test_case "aggregation saves ASIC polls" `Quick
            test_soil_aggregation_saves_asic_polls;
          Alcotest.test_case "aggregated rate is fastest" `Quick
            test_soil_aggregated_rate_is_fastest;
          Alcotest.test_case "PCIe saturation" `Quick test_soil_pcie_saturation;
          Alcotest.test_case "probe sampling" `Quick test_soil_probe_sampling;
          Alcotest.test_case "tcam mediation" `Quick test_soil_tcam_mediation ] );
      ( "seeder",
        [ Alcotest.test_case "deploy and detect" `Quick
            test_seeder_deploy_and_detect;
          Alcotest.test_case "harvester feedback" `Quick
            test_seeder_harvester_feedback;
          Alcotest.test_case "collector accounting" `Quick
            test_seeder_collector_accounting;
          Alcotest.test_case "undeploy releases" `Quick
            test_seeder_undeploy_releases;
          Alcotest.test_case "undeploy frees the harvester" `Quick
            test_seeder_undeploy_frees_harvester;
          Alcotest.test_case "verify_on_deploy gate" `Quick
            test_seeder_verify_on_deploy;
          Alcotest.test_case "rejects bad programs" `Quick
            test_seeder_rejects_bad_programs ]
        @ qsuite [ prop_task_seed_lists ] );
      ( "digest",
        [ Alcotest.test_case "covers every component" `Quick
            test_digest_coverage ]
        @ qsuite [ prop_fork_any_instant ] );
      ( "migration",
        [ Alcotest.test_case "migration preserves state" `Quick
            test_seed_migration_preserves_state;
          Alcotest.test_case "realloc changes poll rate" `Quick
            test_seed_realloc_changes_poll_rate;
          Alcotest.test_case "destroyed seed is collectable" `Quick
            test_destroyed_seed_collectable;
          Alcotest.test_case "reoptimize keeps state" `Quick
            test_reoptimize_migrates_on_arrival;
          Alcotest.test_case "seeder shares one plan per task" `Quick
            test_seeder_shares_one_plan ] );
      ( "messaging",
        [ Alcotest.test_case "inter-seed broadcast and directed" `Quick
            test_inter_seed_messaging ] );
      ( "fault tolerance",
        [ Alcotest.test_case "switch failure recovery" `Quick
            test_switch_failure_recovery;
          Alcotest.test_case "pinned task dropped" `Quick
            test_switch_failure_drops_pinned_task ] );
      ( "checkpoints",
        qsuite
          [ prop_value_roundtrip; prop_checkpoint_roundtrip; prop_wire_bytes;
            prop_hex_length ]
        @ [ Alcotest.test_case "wire form golden" `Quick test_checkpoint_golden;
            Alcotest.test_case "float wire length edge cases" `Quick
              test_hex_edge_cases;
            Alcotest.test_case "restore equivalence across engines" `Quick
              test_checkpoint_restore_engine_equivalence;
            Alcotest.test_case "seeder-side merge rule" `Quick
              test_checkpoint_merge_rule;
            Alcotest.test_case "packed list: checkpoint bytes of its List"
              `Quick test_packed_checkpoint_bytes;
            Alcotest.test_case "packed list: send hands over a Value.List"
              `Quick test_packed_send_is_list;
            Alcotest.test_case "packed list: restore across engines" `Quick
              test_packed_restore_engines ] );
      ( "idempotence",
        [ Alcotest.test_case "ctrl-dup handled exactly once" `Quick
            test_ctrl_dup_idempotence;
          Alcotest.test_case "ctrl-dup copy reaching a re-placed seed" `Quick
            test_ctrl_dup_reinstantiated;
          Alcotest.test_case "ctrl-dup state bounded over broadcasts" `Quick
            test_ctrl_dup_bounded;
          Alcotest.test_case "double recovery is a no-op" `Quick
            test_double_recovery_noop ] );
      ( "self-healing",
        [ Alcotest.test_case "detects and recovers" `Quick
            test_auto_heal_detects_and_recovers;
          Alcotest.test_case "bounded state loss" `Quick
            test_bounded_state_loss;
          Alcotest.test_case "crash during recovery" `Quick
            test_crash_during_recovery;
          Alcotest.test_case "reboot before detection is a true detection"
            `Quick test_reboot_before_detection_is_true;
          Alcotest.test_case "checkpoint store bounded under delta churn"
            `Quick test_checkpoint_store_bounded;
          Alcotest.test_case "false positive zombie fencing" `Quick
            test_false_positive_zombie_fencing ] );
      ( "overload",
        [ Alcotest.test_case "token bucket pacing" `Quick
            test_token_bucket_pacing;
          Alcotest.test_case "breaker state machine" `Quick
            test_breaker_state_machine;
          Alcotest.test_case "AIMD recovers exactly" `Quick
            test_aimd_recovers_exactly;
          Alcotest.test_case "brownout: no migration storm" `Quick
            test_breaker_brownout_no_migration_storm;
          Alcotest.test_case "unlimited limits are inert" `Quick
            test_unlimited_limits_inert;
          Alcotest.test_case "retries: max_retries per message" `Quick
            test_retry_cap_per_message;
          Alcotest.test_case "one-shot: never retried, paced or refused"
            `Quick test_oneshot_ungated;
          Alcotest.test_case "retries: reports and seed messages jitter apart"
            `Quick test_retry_jitter_keys_apart;
          Alcotest.test_case "retries: in-flight bound per switch" `Quick
            test_retry_inflight_bound;
          Alcotest.test_case "control digest in switch order" `Quick
            test_control_digest_order;
          Alcotest.test_case "healing views in switch order" `Quick
            test_healing_switch_order;
          Alcotest.test_case "soil pressure in seed order" `Quick
            test_soil_pressure_order;
          Alcotest.test_case "harvester admits in seed order" `Quick
            test_harvester_window_order;
          Alcotest.test_case "soil detach releases the hooks" `Quick
            test_soil_detach_releases_hooks ]
        @ qsuite
            [ prop_harvester_fencing; prop_fair_share_queue_matches_reference ]
      ) ]
