(* Static-verification tests: the fixture corpus (each file triggers
   exactly one diagnostic code), the clean corpus (catalog + examples),
   cross-task conflict detection, bounds-vs-simulation consistency, and
   the pretty/parse/lint round-trip property. *)

module Ast = Farm_almanac.Ast
module Parser = Farm_almanac.Parser
module Frontend = Farm_almanac.Frontend
module Analysis = Farm_almanac.Analysis
module Lint = Farm_almanac.Lint
module Bounds = Farm_almanac.Bounds
module Diagnostic = Farm_almanac.Diagnostic
module Pretty = Farm_almanac.Pretty
module Topology = Farm_net.Topology
module Fabric = Farm_net.Fabric
module Switch_model = Farm_net.Switch_model
module Conflict = Farm_placement.Conflict
module Engine = Farm_sim.Engine
module Seeder = Farm_runtime.Seeder
module Soil = Farm_runtime.Soil
module Cpu_model = Farm_runtime.Cpu_model
module Task_common = Farm_tasks.Task_common
module Catalog = Farm_tasks.Catalog

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let codes ds = List.map (fun (d : Diagnostic.t) -> d.code) ds
let lint = Frontend.lint ~model:Soil.bounds_model

(* ------------------------------------------------------------------ *)
(* Fixture corpus                                                      *)
(* ------------------------------------------------------------------ *)

let error_codes =
  [ "P001"; "P002"; "T002"; "T006"; "L105"; "L106"; "L107" ]

let fixtures =
  [ ("p001_bad_token.alm", [ "P001" ]);
    ("p002_syntax.alm", [ "P002" ]);
    ("t002_unbound.alm", [ "T002" ]);
    ("t006_bad_transit.alm", [ "T006" ]);
    ("l101_unreachable.alm", [ "L101" ]);
    ("l102_dead_transit.alm", [ "L102" ]);
    ("l103_unused_var.alm", [ "L103" ]);
    ("l104_unused_trigger.alm", [ "L104" ]);
    ("l105_nonlinear_util.alm", [ "L105" ]);
    ("l106_missing_external.alm", [ "L106" ]);
    ("l107_livelock.alm", [ "L107" ]);
    ("b201_understated_util.alm", [ "B201" ]);
    ("clean.alm", []) ]

let test_fixtures () =
  List.iter
    (fun (name, expected) ->
      let path = Filename.concat "lint_fixtures" name in
      let ds, _ = lint ~file:path (read_file path) in
      Alcotest.(check (list string)) name expected (codes ds);
      List.iter
        (fun (d : Diagnostic.t) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s severity of %s" name d.code)
            (List.mem d.code error_codes)
            (Diagnostic.is_error d);
          Alcotest.(check bool)
            (Printf.sprintf "%s positioned" name)
            true (d.pos <> Ast.no_pos))
        ds)
    fixtures

(* ------------------------------------------------------------------ *)
(* Clean corpus: every catalog task and every shipped example lints    *)
(* with zero per-task diagnostics                                      *)
(* ------------------------------------------------------------------ *)

let test_clean_catalog () =
  Alcotest.(check bool) "catalog nonempty" true (List.length Catalog.all > 10);
  List.iter
    (fun (e : Task_common.entry) ->
      let ds, _ =
        lint ~file:("catalog:" ^ e.name) ~extra:e.extra_sigs
          ~externals:e.externals e.source
      in
      if ds <> [] then
        Alcotest.failf "catalog task %s not clean:\n%s" e.name
          (String.concat "\n" (List.map Diagnostic.to_string ds)))
    Catalog.all

let test_clean_examples () =
  let dir = Filename.concat ".." "examples" in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".alm")
    |> List.sort compare
  in
  Alcotest.(check bool) "examples shipped" true (List.length files >= 2);
  List.iter
    (fun f ->
      let path = Filename.concat dir f in
      let ds, _ = lint ~file:path (read_file path) in
      if ds <> [] then
        Alcotest.failf "example %s not clean:\n%s" f
          (String.concat "\n" (List.map Diagnostic.to_string ds)))
    files

(* ------------------------------------------------------------------ *)
(* Cross-task conflict detection                                       *)
(* ------------------------------------------------------------------ *)

let filt s =
  match Analysis.eval_filter (Parser.expression s) with
  | Ok f -> f
  | Error e -> Alcotest.fail e

let test_filter_overlap () =
  let ov a b = Conflict.overlap (filt a) (filt b) in
  Alcotest.(check bool) "same port" true (ov "dstPort 80" "dstPort 80");
  Alcotest.(check bool) "different dst ports" false
    (ov "dstPort 80" "dstPort 443");
  Alcotest.(check bool) "nested prefixes" true
    (ov {|dstIP "10.0.0.0/8"|} {|dstIP "10.1.0.0/16"|});
  Alcotest.(check bool) "disjoint prefixes" false
    (ov {|dstIP "10.2.0.0/16"|} {|dstIP "10.3.0.0/16"|});
  Alcotest.(check bool) "wildcard overlaps everything" true
    (ov "port ANY" "dstPort 443")

(* installs a drop rule for web traffic once, one second in *)
let blocker_source =
  {|
machine Blocker {
  place all;
  time tick = Time { .ival = 1 };
  long armed = 0;
  state s {
    when (tick as t) do {
      if (armed == 0) then {
        addTCAMRule(mkRule(dstPort 80, drop_action()));
        armed = 1;
      }
    }
  }
}
|}

(* rate-limits the same traffic: C301 against Blocker *)
let limiter_source =
  {|
machine Limiter {
  place all;
  time tick = Time { .ival = 1 };
  long armed = 0;
  state s {
    when (tick as t) do {
      if (armed == 0) then {
        addTCAMRule(mkRule(dstPort 80, rate_limit_action(1000)));
        armed = 1;
      }
    }
  }
}
|}

(* installs no rule and polls nothing: conflicts with no task *)
let quiet_source =
  {|
machine Quiet {
  place all;
  time tick = Time { .ival = 1 };
  long n = 0;
  state s {
    when (tick as t) do { n = n + 1; }
  }
}
|}

(* watches all ports: Blocker's drop rule blinds it (C302) *)
let watcher_source =
  {|
machine Watcher {
  place all;
  poll counters = Poll { .ival = 0.5, .what = port ANY };
  float total = 0;
  state s {
    when (counters as stats) do { total = total + 1; }
  }
}
|}

let profile_of ~task source =
  let p =
    match Frontend.load source with
    | Ok p -> p
    | Error ds ->
        Alcotest.failf "profile_of %s: %s" task
          (String.concat "; " (List.map Diagnostic.to_string ds))
  in
  let topo = Topology.spine_leaf ~spines:2 ~leaves:4 ~hosts_per_leaf:2 in
  let summaries =
    List.filter_map
      (fun (m : Ast.machine) ->
        match Analysis.summarize ~topo m with
        | Ok s -> Some (s, Analysis.no_bindings)
        | Error e -> Alcotest.fail e)
      p.machines
  in
  Conflict.profile ~task summaries

let test_conflict_c301 () =
  let ds =
    Conflict.check
      [ profile_of ~task:"blocker" blocker_source;
        profile_of ~task:"limiter" limiter_source ]
  in
  Alcotest.(check bool) "C301 reported" true (List.mem "C301" (codes ds));
  List.iter
    (fun (d : Diagnostic.t) ->
      Alcotest.(check bool) "conflicts are warnings" false
        (Diagnostic.is_error d))
    ds

let test_conflict_c302 () =
  let ds =
    Conflict.check
      [ profile_of ~task:"watcher" watcher_source;
        profile_of ~task:"blocker" blocker_source ]
  in
  Alcotest.(check bool) "C302 reported" true (List.mem "C302" (codes ds))

(* same reaction on a disjoint pattern: no conflict *)
let blocker443_source =
  {|
machine Blocker443 {
  place all;
  time tick = Time { .ival = 1 };
  long armed = 0;
  state s {
    when (tick as t) do {
      if (armed == 0) then {
        addTCAMRule(mkRule(dstPort 443, drop_action()));
        armed = 1;
      }
    }
  }
}
|}

let test_conflict_disjoint () =
  let ds =
    Conflict.check
      [ profile_of ~task:"blocker80" blocker_source;
        profile_of ~task:"blocker443" blocker443_source ]
  in
  Alcotest.(check (list string)) "no conflicts on disjoint ports" [] (codes ds)

(* ------------------------------------------------------------------ *)
(* Seeder integration: deploy-time verification                        *)
(* ------------------------------------------------------------------ *)

let make_world ?config () =
  let engine = Engine.create ~seed:11 () in
  let topo = Topology.spine_leaf ~spines:2 ~leaves:2 ~hosts_per_leaf:1 in
  let fabric = Fabric.create topo in
  (engine, Seeder.create ?config engine fabric)

let livelock_source =
  {|
machine Spin {
  place all;
  time tick = Time { .ival = 1 };
  long n = 0;
  state a {
    when (enter) do { transit a; }
    when (tick as t) do { n = n + 1; }
  }
}
|}

let test_seeder_refuses_livelock () =
  let _, seeder = make_world () in
  (match Seeder.deploy seeder (Seeder.simple_spec ~name:"spin" ~source:livelock_source) with
  | Ok _ -> Alcotest.fail "livelock program deployed"
  | Error m ->
      Alcotest.(check bool) "mentions lint" true
        (String.length m >= 4 && String.sub m 0 4 = "lint"));
  Alcotest.(check bool) "L107 recorded" true
    (List.mem "L107" (codes (Seeder.last_deploy_diagnostics seeder)))

let test_seeder_conflict_warns () =
  let _, seeder = make_world () in
  (match
     Seeder.deploy seeder
       (Seeder.simple_spec ~name:"blocker" ~source:blocker_source)
   with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "deploy blocker: %s" m);
  Alcotest.(check (list string)) "first deploy clean" []
    (codes (Seeder.last_deploy_diagnostics seeder));
  (match
     Seeder.deploy seeder
       (Seeder.simple_spec ~name:"limiter" ~source:limiter_source)
   with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "deploy limiter: %s" m);
  Alcotest.(check bool) "C301 recorded on second deploy" true
    (List.mem "C301" (codes (Seeder.last_deploy_diagnostics seeder)))

(* the refused deploy draws no ids: the next task continues the
   numbering of the last accepted one *)
let test_seeder_refuses_conflicts () =
  let _, seeder =
    make_world
      ~config:{ Seeder.default_config with refuse_conflicts = true } ()
  in
  let deploy name source =
    Seeder.deploy seeder (Seeder.simple_spec ~name ~source)
  in
  let ids task =
    List.map
      (fun (s : Farm_placement.Model.seed_spec) -> (s.task_id, s.seed_id))
      (Seeder.seed_specs seeder task)
  in
  match deploy "blocker" blocker_source with
  | Error m -> Alcotest.failf "deploy blocker: %s" m
  | Ok blocker -> (
      (match deploy "limiter" limiter_source with
      | Ok _ ->
          Alcotest.fail "conflicting task deployed despite refuse_conflicts"
      | Error _ ->
          Alcotest.(check bool) "mentions conflict" true
            (List.mem "C301" (codes (Seeder.last_deploy_diagnostics seeder))));
      let n = List.length (ids blocker) in
      match deploy "quiet" quiet_source with
      | Error m -> Alcotest.failf "deploy quiet: %s" m
      | Ok quiet ->
          Alcotest.(check (list (pair int int)))
            "task 1, seeds after the blocker's"
            (List.init n (fun i -> (1, n + i)))
            (ids quiet))

(* ------------------------------------------------------------------ *)
(* Bounds vs. simulation: the inferred ceiling dominates the observed  *)
(* per-seed usage and stays within 2x for a deterministic machine      *)
(* ------------------------------------------------------------------ *)

let bounds_probe_source =
  {|
machine BoundsProbe {
  place all;
  poll counters = Poll { .ival = 0.05, .what = port ANY };
  float total = 0;
  state watching {
    when (counters as stats) do { total = total + 1; }
  }
}
|}

let test_bounds_vs_simulation () =
  let engine, seeder = make_world () in
  (match
     Seeder.deploy seeder
       (Seeder.simple_spec ~name:"bounds-probe" ~source:bounds_probe_source)
   with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "deploy: %s" m);
  let duration = 10. in
  Engine.run ~until:duration engine;
  let machine, polls =
    match Frontend.load bounds_probe_source with
    | Error _ -> Alcotest.fail "bounds probe does not typecheck"
    | Ok p -> (
        let m = List.hd p.machines in
        match Analysis.polls m with
        | Ok polls -> (m, polls)
        | Error e -> Alcotest.fail e)
  in
  let res = Array.make Analysis.n_resources 0. in
  List.iter
    (fun soil ->
      Alcotest.(check int) "one seed per soil" 1 (Soil.seed_count soil);
      (* calibrate the per-fabric parameter; everything else is the
         default cost model *)
      let ports = Switch_model.port_count (Soil.switch soil) in
      let model = { Soil.bounds_model with port_count = ports } in
      let d = Bounds.infer ~model ~machine ~polls ~res () in
      Alcotest.(check bool) "deterministic" true d.deterministic;
      let observed = Cpu_model.busy_seconds (Soil.cpu soil) /. duration in
      Alcotest.(check bool) "seed did run" true (observed > 0.);
      Alcotest.(check bool)
        (Printf.sprintf "cpu ceiling holds (%.3g >= %.3g)" d.vcpu_worst
           observed)
        true
        (d.vcpu_worst >= observed *. 0.999);
      Alcotest.(check bool)
        (Printf.sprintf "cpu ceiling within 2x (%.3g <= 2 * %.3g)"
           d.vcpu_worst observed)
        true
        (d.vcpu_worst <= 2. *. observed);
      let ps : Soil.poll_stats = Soil.poll_stats soil in
      let reads = ps.pcie_bytes /. Soil.counter_record_bytes /. duration in
      Alcotest.(check bool) "pcie reads observed" true (reads > 0.);
      Alcotest.(check bool)
        (Printf.sprintf "pcie ceiling holds (%.3g >= %.3g)"
           d.pcie_reads_worst reads)
        true
        (d.pcie_reads_worst >= reads *. 0.999);
      Alcotest.(check bool)
        (Printf.sprintf "pcie ceiling within 2x (%.3g <= 2 * %.3g)"
           d.pcie_reads_worst reads)
        true
        (d.pcie_reads_worst <= 2. *. reads))
    (Seeder.soils seeder)

(* ------------------------------------------------------------------ *)
(* Property: pretty -> parse -> pretty is a fixpoint for well-formed   *)
(* machines, and lint diagnostics are stable across the round-trip     *)
(* ------------------------------------------------------------------ *)

let gen_machine =
  let open QCheck2.Gen in
  let p = Ast.no_pos in
  let tick =
    { Ast.ttyp = Ast.Time; tname = "tick";
      tinit = Some (Ast.StructLit ("Time", [ ("ival", Ast.Int 1) ]));
      tloc = p }
  in
  let var_n =
    { Ast.is_external = false; vtyp = Ast.Tlong; vname = "n";
      vinit = Some (Ast.Int 0); vloc = p }
  in
  int_range 1 3 >>= fun nstates ->
  let names = List.init nstates (Printf.sprintf "s%d") in
  let gen_target = oneofl names in
  let gen_stmt =
    oneof
      [ map
          (fun k ->
            Ast.stmt (Ast.Assign ("n", Ast.Binop (Ast.Add, Ast.Var "n", Ast.Int k))))
          (int_range 0 9);
        map (fun t -> Ast.stmt (Ast.Transit (Ast.Var t))) gen_target;
        map2
          (fun k t ->
            Ast.stmt
              (Ast.If
                 ( Ast.Binop (Ast.Lt, Ast.Var "n", Ast.Int k),
                   [ Ast.stmt (Ast.Transit (Ast.Var t)) ],
                   [] )))
          (int_range 0 9) gen_target ]
  in
  let gen_state name =
    list_size (int_range 1 3) gen_stmt >>= fun body ->
    return
      { Ast.sname = name; slocals = []; sutil = None;
        sevents =
          [ { Ast.trigger = Ast.On_trigger_var ("tick", Some "t"); body;
              evloc = p } ];
        stloc = p }
  in
  flatten_l (List.map gen_state names) >>= fun states ->
  return
    { Ast.mname = "M"; extends = None;
      places = [ { Ast.pquant = Ast.QAll; pconstraint = Ast.Anywhere; ploc = p } ];
      mvars = [ var_n ]; mtrigs = [ tick ]; states; mevents = []; mloc = p }

let prop_machine_roundtrip =
  QCheck2.Test.make ~name:"machine pretty/parse fixpoint + lint stability"
    ~count:100 gen_machine (fun m ->
      let p1 = { Ast.funcs = []; machines = [ m ] } in
      let s1 = Pretty.program_to_string p1 in
      match Parser.program_result s1 with
      | Error _ -> false
      | Ok p2 ->
          let s2 = Pretty.program_to_string p2 in
          (* generated machines carry no positions, so diagnostic codes
             are compared as sorted multisets: the position-major sort
             orders them differently once the reparse adds spans *)
          let sorted_codes p = List.sort compare (codes (Lint.check_program p)) in
          s1 = s2
          && Ast.strip_pos p2 = Ast.strip_pos p1
          && sorted_codes p1 = sorted_codes p2)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "farm_lint"
    [ ( "fixtures",
        [ Alcotest.test_case "one code per fixture" `Quick test_fixtures ] );
      ( "clean corpus",
        [ Alcotest.test_case "catalog tasks lint clean" `Quick
            test_clean_catalog;
          Alcotest.test_case "shipped examples lint clean" `Quick
            test_clean_examples ] );
      ( "conflicts",
        [ Alcotest.test_case "filter overlap" `Quick test_filter_overlap;
          Alcotest.test_case "C301 overlapping rules" `Quick
            test_conflict_c301;
          Alcotest.test_case "C302 blinded monitor" `Quick test_conflict_c302;
          Alcotest.test_case "disjoint rules are quiet" `Quick
            test_conflict_disjoint ] );
      ( "seeder",
        [ Alcotest.test_case "refuses livelock" `Quick
            test_seeder_refuses_livelock;
          Alcotest.test_case "records conflicts" `Quick
            test_seeder_conflict_warns;
          Alcotest.test_case "refuse_conflicts blocks deploy" `Quick
            test_seeder_refuses_conflicts ] );
      ( "bounds",
        [ Alcotest.test_case "inferred ceiling vs simulation" `Quick
            test_bounds_vs_simulation ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_machine_roundtrip ] ) ]
