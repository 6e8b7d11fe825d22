(* Tests for the seed-placement model (§IV), the Alg. 1 heuristic and the
   MILP formulation: constraints C1-C4, aggregation benefits, migration
   behaviour, and heuristic-vs-MILP utility on small instances. *)

open Farm_placement
module Analysis = Farm_almanac.Analysis
module Filter = Farm_net.Filter
module Lin = Farm_optim.Lin_expr
module Rng = Farm_sim.Rng

let vcpu = Analysis.resource_index Analysis.VCpu
let ram = Analysis.resource_index Analysis.Ram
let pcie = Analysis.resource_index Analysis.Pcie

let mk_caps node ?(cpu = 4.) ?(mem = 1024.) ?(tcam = 128.) ?(bus = 100.) () =
  let avail = Array.make Analysis.n_resources 0. in
  avail.(vcpu) <- cpu;
  avail.(ram) <- mem;
  avail.(Analysis.resource_index Analysis.TcamR) <- tcam;
  avail.(pcie) <- bus;
  { Model.node; avail }

(* a seed needing [cpu] cores and [mem] MB, utility 10*vCPU capped at [cap] *)
let mk_seed ?(polls = []) ~id ~task ~candidates ?(cpu = 1.) ?(mem = 100.)
    ?(cap = 10.) () =
  { Model.seed_id = id; task_id = task; candidates;
    branches =
      [ { Analysis.constraints =
            [ Lin.sub (Lin.var vcpu) (Lin.const cpu);
              Lin.sub (Lin.var ram) (Lin.const mem) ];
          utility = [ Lin.var ~coeff:10. vcpu; Lin.const cap ] } ];
    polls }

let poll_every ?(subject = Filter.All_ports) iv =
  { Model.subject; ival = Analysis.Const_ival iv }

let mk_instance ?(alpha = 1.) ?(previous = []) seeds switches =
  { Model.seeds; switches; alpha_poll = alpha; previous }

let assert_valid inst placement =
  match Model.validate inst placement.Model.assignments with
  | [] -> ()
  | problems -> Alcotest.failf "invalid placement: %s" (String.concat "; " problems)

(* ------------------------------------------------------------------ *)
(* Model                                                               *)
(* ------------------------------------------------------------------ *)

let test_validate_catches_violations () =
  let inst =
    mk_instance
      [ mk_seed ~id:0 ~task:0 ~candidates:[ 0 ] ();
        mk_seed ~id:1 ~task:0 ~candidates:[ 0 ] () ]
      [ mk_caps 0 ~cpu:1.5 () ]
  in
  let res = Array.make Analysis.n_resources 0. in
  res.(vcpu) <- 1.;
  res.(ram) <- 100.;
  (* partial task placement violates C1 *)
  let a0 = { Model.a_seed = 0; a_node = 0; a_branch = 0; a_res = res } in
  let problems = Model.validate inst [ a0 ] in
  Alcotest.(check bool) "C1 violation reported" true
    (List.exists (fun m -> String.length m > 0 && String.sub m 0 4 = "task")
       problems);
  (* both seeds exceed the 1.5-core switch: C4 *)
  let a1 = { Model.a_seed = 1; a_node = 0; a_branch = 0; a_res = res } in
  let problems = Model.validate inst [ a0; a1 ] in
  Alcotest.(check bool) "C4 violation reported" true
    (List.exists
       (fun m ->
         String.length m >= 6 && String.sub m 0 6 = "switch")
       problems);
  (* under-resourced seed violates C2 *)
  let low = Array.make Analysis.n_resources 0. in
  low.(vcpu) <- 0.1;
  let problems =
    Model.validate inst
      [ { Model.a_seed = 0; a_node = 0; a_branch = 0; a_res = low };
        a1 ]
  in
  Alcotest.(check bool) "C2 violation reported" true
    (List.exists
       (fun m ->
         let n = String.length m in
         n >= 4 && String.sub m (n - 4) 4 = "(C2)")
       problems)

let test_poll_aggregation_max_not_sum () =
  (* two seeds polling the same subject at 10/s and 4/s: demand is 10, not
     14 (aggregation); different subjects: 14 *)
  let same =
    mk_instance
      [ mk_seed ~id:0 ~task:0 ~candidates:[ 0 ] ~polls:[ poll_every 0.1 ] ();
        mk_seed ~id:1 ~task:1 ~candidates:[ 0 ] ~polls:[ poll_every 0.25 ] () ]
      [ mk_caps 0 () ]
  in
  let res = Array.make Analysis.n_resources 0. in
  res.(vcpu) <- 1.;
  res.(ram) <- 100.;
  let assignments =
    [ { Model.a_seed = 0; a_node = 0; a_branch = 0; a_res = res };
      { Model.a_seed = 1; a_node = 0; a_branch = 0; a_res = res } ]
  in
  Alcotest.(check (float 1e-9)) "aggregated demand is the max" 10.
    (Model.poll_demand same assignments ~node:0);
  let diff =
    mk_instance
      [ mk_seed ~id:0 ~task:0 ~candidates:[ 0 ] ~polls:[ poll_every 0.1 ] ();
        mk_seed ~id:1 ~task:1 ~candidates:[ 0 ]
          ~polls:[ poll_every ~subject:(Filter.Port_counter 80) 0.25 ] () ]
      [ mk_caps 0 () ]
  in
  Alcotest.(check (float 1e-9)) "distinct subjects add up" 14.
    (Model.poll_demand diff assignments ~node:0)

(* ------------------------------------------------------------------ *)
(* Heuristic                                                           *)
(* ------------------------------------------------------------------ *)

let test_heuristic_places_simple () =
  let inst =
    mk_instance
      [ mk_seed ~id:0 ~task:0 ~candidates:[ 0; 1 ] ();
        mk_seed ~id:1 ~task:0 ~candidates:[ 0; 1 ] () ]
      [ mk_caps 0 (); mk_caps 1 () ]
  in
  let placement, stats = Heuristic.optimize inst in
  Alcotest.(check int) "both seeds placed" 2 stats.placed_seeds;
  Alcotest.(check int) "no drops" 0 stats.dropped_tasks;
  assert_valid inst placement;
  Alcotest.(check bool) "positive utility" true (placement.utility > 0.)

let test_heuristic_redistribution_improves () =
  (* one seed alone on a big switch: redistribution should push utility to
     the min(10*vCPU, cap) ceiling *)
  let inst =
    mk_instance
      [ mk_seed ~id:0 ~task:0 ~candidates:[ 0 ] ~cap:25. () ]
      [ mk_caps 0 ~cpu:4. () ]
  in
  let greedy, _ = Heuristic.optimize ~phases:Heuristic.greedy_only inst in
  let full, _ = Heuristic.optimize inst in
  assert_valid inst full;
  (* greedy gives the minimal allocation: 10 * 1 vCPU = 10 *)
  Alcotest.(check (float 1e-6)) "greedy at min alloc" 10. greedy.utility;
  (* redistribution grants up to 4 cores -> capped at 25 *)
  Alcotest.(check (float 1e-6)) "LP fills spare capacity" 25. full.utility

let test_heuristic_respects_capacity () =
  (* 3 seeds of 1 core each, switch has 2.5 cores: only 2 fit; the third
     seed's task (task 1 with 1 seed) must be dropped... all seeds same
     task -> whole task dropped; use separate tasks *)
  let inst =
    mk_instance
      [ mk_seed ~id:0 ~task:0 ~candidates:[ 0 ] ();
        mk_seed ~id:1 ~task:1 ~candidates:[ 0 ] ();
        mk_seed ~id:2 ~task:2 ~candidates:[ 0 ] () ]
      [ mk_caps 0 ~cpu:2.5 () ]
  in
  let placement, stats = Heuristic.optimize inst in
  assert_valid inst placement;
  Alcotest.(check int) "two seeds fit" 2 stats.placed_seeds;
  Alcotest.(check int) "one task dropped" 1 stats.dropped_tasks

let test_heuristic_c1_all_or_nothing () =
  (* task with two seeds, but only room for one -> entire task dropped *)
  let inst =
    mk_instance
      [ mk_seed ~id:0 ~task:0 ~candidates:[ 0 ] ();
        mk_seed ~id:1 ~task:0 ~candidates:[ 0 ] () ]
      [ mk_caps 0 ~cpu:1.2 () ]
  in
  let placement, stats = Heuristic.optimize inst in
  Alcotest.(check int) "nothing placed" 0 stats.placed_seeds;
  Alcotest.(check int) "task dropped" 1 stats.dropped_tasks;
  Alcotest.(check (float 0.)) "zero utility" 0. placement.utility

let test_heuristic_aggregation_enables_fit () =
  (* polling budget 12: two seeds each demanding 10 polls/s only fit when
     they share the subject (aggregated max = 10 <= 12). *)
  let shared =
    mk_instance
      [ mk_seed ~id:0 ~task:0 ~candidates:[ 0 ] ~polls:[ poll_every 0.1 ] ();
        mk_seed ~id:1 ~task:1 ~candidates:[ 0 ] ~polls:[ poll_every 0.1 ] () ]
      [ mk_caps 0 ~bus:12. () ]
  in
  let placement, stats = Heuristic.optimize shared in
  assert_valid shared placement;
  Alcotest.(check int) "both fit thanks to aggregation" 2 stats.placed_seeds;
  let unshared =
    mk_instance
      [ mk_seed ~id:0 ~task:0 ~candidates:[ 0 ] ~polls:[ poll_every 0.1 ] ();
        mk_seed ~id:1 ~task:1 ~candidates:[ 0 ]
          ~polls:[ poll_every ~subject:(Filter.Port_counter 9) 0.1 ] () ]
      [ mk_caps 0 ~bus:12. () ]
  in
  let placement2, stats2 = Heuristic.optimize unshared in
  assert_valid unshared placement2;
  Alcotest.(check int) "only one fits without sharing" 1 stats2.placed_seeds

let test_heuristic_prefers_previous_location () =
  (* seed can go to switch 0 or 1; it previously ran on switch 1 *)
  let res = Array.make Analysis.n_resources 0. in
  res.(vcpu) <- 1.;
  res.(ram) <- 100.;
  let previous = [ { Model.a_seed = 0; a_node = 1; a_branch = 0; a_res = res } ] in
  let inst =
    mk_instance ~previous
      [ mk_seed ~id:0 ~task:0 ~candidates:[ 0; 1 ] () ]
      [ mk_caps 0 (); mk_caps 1 () ]
  in
  let placement, _ = Heuristic.optimize inst in
  match placement.assignments with
  | [ a ] -> Alcotest.(check int) "stays on switch 1" 1 a.a_node
  | _ -> Alcotest.fail "expected one assignment"

let test_heuristic_migrates_for_utility () =
  (* Seed 0 sits on tiny switch 0 (cap just enough for min alloc).  A big
     switch 1 is available; migration should move it there for higher
     utility. *)
  let res = Array.make Analysis.n_resources 0. in
  res.(vcpu) <- 1.;
  res.(ram) <- 100.;
  let previous = [ { Model.a_seed = 0; a_node = 0; a_branch = 0; a_res = res } ] in
  let inst =
    mk_instance ~previous
      [ mk_seed ~id:0 ~task:0 ~candidates:[ 0; 1 ] ~cap:30. () ]
      [ mk_caps 0 ~cpu:1. (); mk_caps 1 ~cpu:4. () ]
  in
  let placement, stats = Heuristic.optimize inst in
  assert_valid inst placement;
  (match placement.assignments with
  | [ a ] -> Alcotest.(check int) "migrated to big switch" 1 a.a_node
  | _ -> Alcotest.fail "expected one assignment");
  Alcotest.(check bool) "migration counted" true (stats.migrations >= 1);
  Alcotest.(check (float 1e-6)) "utility after migration" 30. placement.utility

let test_heuristic_task_priority () =
  (* High-min-utility task placed first gets the scarce switch. *)
  let inst =
    mk_instance
      [ mk_seed ~id:0 ~task:0 ~candidates:[ 0 ] ~cap:5. ();
        mk_seed ~id:1 ~task:1 ~candidates:[ 0 ] ~cap:50. ~cpu:2. () ]
      [ mk_caps 0 ~cpu:2.5 () ]
  in
  (* task 1 min utility = 10*2 = 20 > task 0's 10 -> placed first, and
     after that only 0.5 cores remain: task 0 cannot fit *)
  let placement, _ = Heuristic.optimize inst in
  assert_valid inst placement;
  match placement.assignments with
  | [ a ] -> Alcotest.(check int) "high-utility seed placed" 1 a.a_seed
  | _ -> Alcotest.fail "expected exactly one placed seed"

let prop_heuristic_always_valid =
  QCheck2.Test.make ~name:"heuristic placements satisfy C1-C4" ~count:40
    QCheck2.Gen.(pair (int_range 1 20) (int_range 1 6))
    (fun (seed, tasks) ->
      let rng = Rng.create seed in
      let inst =
        Model.random_instance ~rng ~switches:(2 + (seed mod 7)) ~tasks
          ~seeds_per_task:(1 + (seed mod 5)) ()
      in
      let placement, _ = Heuristic.optimize inst in
      Model.validate inst placement.assignments = [])

(* -- memoised heuristic vs its un-memoised reference (qcheck) ------ *)

(* Instances that exercise the per-call LP memo and the call's seed
   index: a few switch shapes repeated over many switches (48-96 of them
   in one draw in eight), a few seed templates repeated across tasks, with
   each task polling its own subjects or ones it shares with others.
   Subjects are built afresh per task, so shared ones are equal but not
   physically equal.  As the seeder builds them, a task has one or two
   machines, each a run of seeds sharing one [branches] and one [polls]
   list, and a machine may place a seed on every switch ([candidates =
   [node]]); a twin task may repeat another with structurally equal but
   physically distinct lists, as two deploys of one task do.  Half the
   draws carry a previous placement: the reference's placement of the
   tasks but the last, as a rolling deploy has, or random locations. *)
let memo_instance seed =
  let rng = Rng.create seed in
  let pick l = List.nth l (Rng.int rng (List.length l)) in
  let tcam = Analysis.resource_index Analysis.TcamR in
  let shapes =
    List.init (1 + Rng.int rng 3) (fun _ ->
        (pick [ 1.; 2.; 4. ], pick [ 512.; 1024. ], pick [ 30.; 100.; 300. ]))
  in
  let nsw =
    if Rng.int rng 8 = 0 then 48 + Rng.int rng 49 else 2 + Rng.int rng 23
  in
  let switches =
    List.init nsw (fun node ->
        let cpu, mem, bus = pick shapes in
        mk_caps node ~cpu ~mem ~bus ())
  in
  let subject k =
    match k with
    | 0 -> Filter.All_ports
    | k -> Filter.Port_counter (10 * k)
  in
  (* a template fixes a seed's shape; a task drawing it may still pick
     its own utility caps and constant poll intervals *)
  let cap () = pick [ 3.; 6.; 50. ] and const_ival () = pick [ 0.02; 0.1 ] in
  let template () =
    let branch () =
      ( [ Lin.sub (Lin.var vcpu) (Lin.const (pick [ 0.1; 0.25 ]));
          Lin.sub (Lin.var ram) (Lin.const 16.) ]
        @ (if Rng.bool rng then [] else [ Lin.sub (Lin.var tcam) (Lin.const 4.) ]),
        pick [ 5.; 10. ],
        cap () )
    in
    let branches = List.init (1 + Rng.int rng 2) (fun _ -> branch ()) in
    let polls =
      List.init (Rng.int rng 3) (fun _ ->
          let ival =
            if Rng.bool rng then Analysis.Const_ival (const_ival ())
            else Analysis.Inv_linear (Lin.var ~coeff:(pick [ 10.; 40. ]) vcpu)
          in
          (Rng.int rng 3, ival))
    in
    (branches, polls)
  in
  let templates = List.init (1 + Rng.int rng 2) (fun _ -> template ()) in
  let next_id = ref 0 in
  let fresh_id () =
    let id = !next_id in
    incr next_id;
    id
  in
  let machine task =
    let branches, polls = pick templates in
    let own = Rng.bool rng in
    let branches =
      List.map
        (fun (constraints, coeff, c) ->
          { Analysis.constraints;
            utility =
              [ Lin.var ~coeff vcpu; Lin.const (if own then cap () else c) ] })
        branches
    in
    (* own subjects (offset) or the shared low ones *)
    let offset = if Rng.bool rng then 0 else 1 + task in
    let polls =
      List.map
        (fun (k, ival) ->
          { Model.subject = subject (if k = 0 then 0 else k + offset);
            ival =
              (match ival with
              | Analysis.Const_ival _ when own ->
                  Analysis.Const_ival (const_ival ())
              | ival -> ival) })
        polls
    in
    let seed candidates =
      { Model.seed_id = fresh_id (); task_id = task; candidates; branches;
        polls }
    in
    match Rng.int rng 3 with
    | 0 -> List.init nsw (fun node -> seed [ node ])
    | k ->
        List.init (1 + Rng.int rng 4) (fun _ ->
            seed
              (if k = 1 then List.init nsw Fun.id
               else
                 List.sort_uniq Int.compare
                   (List.init (1 + Rng.int rng 3) (fun _ -> Rng.int rng nsw))))
  in
  let tasks =
    List.init (2 + Rng.int rng 9) (fun task ->
        List.concat (List.init (1 + Rng.int rng 2) (fun _ -> machine task)))
  in
  let ntasks = List.length tasks in
  let twin =
    if Rng.int rng 3 > 0 then []
    else
      let copy_lin l = Lin.add Lin.zero l in
      List.map
        (fun (s : Model.seed_spec) ->
          { s with
            seed_id = fresh_id ();
            task_id = ntasks;
            branches =
              List.map
                (fun (b : Analysis.util_branch) ->
                  { Analysis.constraints = List.map copy_lin b.constraints;
                    utility = List.map copy_lin b.utility })
                s.branches;
            polls = List.map (fun (p : Model.poll_req) -> { p with ival = p.ival }) s.polls })
        (pick tasks)
  in
  let seeds = List.concat tasks @ twin in
  let previous =
    match Rng.int rng 4 with
    | 0 ->
        let earlier =
          List.filter
            (fun (s : Model.seed_spec) -> s.task_id < ntasks - 1)
            (List.concat tasks)
        in
        (fst (Ref_heuristic.optimize (mk_instance earlier switches)))
          .assignments
    | 1 ->
        List.filter_map
          (fun (s : Model.seed_spec) ->
            if Rng.bool rng then None
            else
              Some
                { Model.a_seed = s.seed_id; a_node = Rng.int rng (nsw + 2);
                  a_branch = 0; a_res = Array.make Analysis.n_resources 0. })
          seeds
    | _ -> []
  in
  mk_instance ~previous seeds switches

let same_placement ((p : Model.placement), m) ((q : Model.placement), m') =
  let bits = Int64.bits_of_float in
  let same (a : Model.assignment) (b : Model.assignment) =
    a.a_seed = b.a_seed && a.a_node = b.a_node && a.a_branch = b.a_branch
    && Array.length a.a_res = Array.length b.a_res
    && Array.for_all2 (fun x y -> bits x = bits y) a.a_res b.a_res
  in
  List.length p.assignments = List.length q.assignments
  && List.for_all2 same p.assignments q.assignments
  && bits p.utility = bits q.utility
  && m = m'

let prop_memo_matches_reference =
  QCheck2.Test.make ~name:"memoised optimize = un-memoised reference"
    ~count:500 ~print:string_of_int
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let inst = memo_instance seed in
      let rng = Rng.create (seed + 1) in
      let phases =
        { Heuristic.redistribute = Rng.int rng 4 > 0; migrate = Rng.bool rng }
      in
      let ref_phases =
        { Ref_heuristic.redistribute = phases.redistribute;
          migrate = phases.migrate }
      in
      let first, stats = Heuristic.optimize ~phases inst in
      if
        not
          (same_placement (first, stats.migrations)
             (Ref_heuristic.optimize ~phases:ref_phases inst))
      then false
      else
        (* incremental: the first placement is the previous one; a switch
           may have failed and some seeds are re-decided *)
        let prev = first.assignments in
        let switches =
          if Rng.bool rng then inst.switches
          else List.filter (fun (c : Model.switch_caps) -> c.node <> 0)
                 inst.switches
        in
        let inc = { inst with previous = prev; switches } in
        let affected =
          List.filter_map
            (fun (s : Model.seed_spec) ->
              if Rng.int rng 3 = 0 then Some s.seed_id else None)
            inst.seeds
        in
        let p, stats = Heuristic.optimize_incremental ~phases inc ~affected in
        same_placement (p, stats.migrations)
          (Ref_heuristic.optimize_incremental ~phases:ref_phases inc ~affected))

(* Model.total_utility looks seeds up in an index built once per call;
   the linear-scan fold frozen in ref_heuristic must give the same float,
   bit for bit, on any assignment list: seeds in random order, repeats,
   branch indices past the last branch, random allocations. *)
let prop_total_utility_matches_reference =
  QCheck2.Test.make ~name:"indexed total_utility = linear-scan reference"
    ~count:300 ~print:string_of_int
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let inst = memo_instance seed in
      let rng = Rng.create (seed + 2) in
      let seeds = Array.of_list inst.seeds in
      let assignments =
        if seeds = [||] then []
        else
          List.init (Rng.int rng ((2 * Array.length seeds) + 1)) (fun _ ->
              let s = Rng.choose rng seeds in
              { Model.a_seed = s.seed_id;
                a_node = Rng.int rng 4;
                a_branch = Rng.int rng (List.length s.branches + 1);
                a_res =
                  Array.init Analysis.n_resources (fun _ ->
                      Rng.uniform rng 0. 100.) })
      in
      let bits = Int64.bits_of_float in
      bits (Model.total_utility inst assignments)
      = bits (Ref_heuristic.total_utility inst assignments))

(* The LP-solve count of one optimize over a deploy-churn-like live set:
   heavy-hitter resident plus the first six rolling catalog tasks, on a
   96-switch spine-leaf fabric.  A task's seeds share their branches and
   most switches host the same mix of seeds, so the call solves far fewer
   LPs than there are switches: 5, where solving one per branch of each of
   the 768 seeds and one per switch took 864.  The count is deterministic,
   hence pinned: it moves only if the heuristic or the catalog changes.
   So is the placement: the MD5 of its assignments (seed, node, branch and
   each allocation in [%h]) and the bits of its utility are pinned as the
   heuristic computed them before its per-call seed index. *)
let test_lp_solves_on_live_set () =
  let engine = Farm_sim.Engine.create ~seed:1 () in
  let topo =
    Farm_net.Topology.spine_leaf ~spines:8 ~leaves:88 ~hosts_per_leaf:1
  in
  let seeder =
    Farm_runtime.Seeder.create engine (Farm_net.Fabric.create topo)
  in
  List.iter
    (fun name ->
      let spec =
        Farm_tasks.Task_common.to_task_spec (Farm_tasks.Catalog.find name)
      in
      match Farm_runtime.Seeder.deploy seeder spec with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "deploy %s: %s" name m)
    [ "heavy-hitter"; "heavy-hitter"; "hierarchical-heavy-hitter-inherited";
      "hierarchical-heavy-hitter"; "new-tcp-connections"; "tcp-syn-flood";
      "partial-tcp-flow" ];
  let inst = Farm_runtime.Seeder.placement_instance seeder in
  let placement, stats = Heuristic.optimize inst in
  Alcotest.(check int) "96 switches" 96 (List.length inst.switches);
  Alcotest.(check int) "every seed placed" (List.length inst.seeds)
    (List.length placement.assignments);
  Alcotest.(check bool)
    (Printf.sprintf "%d LP solves, far below 96 switches" stats.lp_solves)
    true
    (stats.lp_solves * 4 <= 96);
  Alcotest.(check int) "pinned LP solves" 5 stats.lp_solves;
  let b = Buffer.create 4096 in
  List.iter
    (fun (a : Model.assignment) ->
      Printf.bprintf b "%d %d %d" a.a_seed a.a_node a.a_branch;
      Array.iter (Printf.bprintf b " %h") a.a_res;
      Buffer.add_char b '\n')
    placement.assignments;
  Alcotest.(check string) "pinned placement"
    "6707e6b85b6bdbb739411a2cfc35e2bc"
    (Digest.to_hex (Digest.string (Buffer.contents b)));
  Alcotest.(check string) "pinned utility bits" "40b63cccccccccd8"
    (Printf.sprintf "%Lx" (Int64.bits_of_float placement.utility))

(* ------------------------------------------------------------------ *)
(* MILP                                                                *)
(* ------------------------------------------------------------------ *)

let test_milp_simple_optimal () =
  let inst =
    mk_instance
      [ mk_seed ~id:0 ~task:0 ~candidates:[ 0; 1 ] ~cap:25. () ]
      [ mk_caps 0 ~cpu:1. (); mk_caps 1 ~cpu:4. () ]
  in
  let r = Milp_formulation.solve ~timeout:10. inst in
  Alcotest.(check bool) "optimal" true (r.status = Farm_optim.Milp.Optimal);
  assert_valid inst r.placement;
  (* best: switch 1 with 2.5 cores -> min(10*2.5, 25) = 25 *)
  Alcotest.(check (float 1e-4)) "utility" 25. r.placement.utility;
  match r.placement.assignments with
  | [ a ] -> Alcotest.(check int) "big switch chosen" 1 a.a_node
  | _ -> Alcotest.fail "expected one assignment"

let test_milp_beats_or_ties_heuristic () =
  (* on small random instances the exact solver's utility must be >= the
     heuristic's (modulo tolerance) *)
  let rng = Rng.create 99 in
  for _ = 1 to 5 do
    let inst = Model.random_instance ~rng ~switches:3 ~tasks:2 ~seeds_per_task:2 () in
    let hp, _ = Heuristic.optimize inst in
    let r = Milp_formulation.solve ~timeout:20. ~warm_start:hp inst in
    assert_valid inst r.placement;
    Alcotest.(check bool)
      (Printf.sprintf "milp %.2f >= heuristic %.2f" r.placement.utility
         hp.utility)
      true
      (r.placement.utility >= hp.utility -. 1e-4)
  done

let test_milp_c1_in_formulation () =
  (* two-seed task that cannot fully fit: MILP must place nothing *)
  let inst =
    mk_instance
      [ mk_seed ~id:0 ~task:0 ~candidates:[ 0 ] ();
        mk_seed ~id:1 ~task:0 ~candidates:[ 0 ] () ]
      [ mk_caps 0 ~cpu:1.2 () ]
  in
  let r = Milp_formulation.solve ~timeout:10. inst in
  Alcotest.(check int) "no partial placement" 0
    (List.length r.placement.assignments)

let test_milp_size_guard () =
  (* a big instance with a warm start: the guard returns the warm start *)
  let rng = Rng.create 7 in
  let inst = Model.random_instance ~rng ~switches:20 ~tasks:8 ~seeds_per_task:40 () in
  let hp, _ = Heuristic.optimize inst in
  let r = Milp_formulation.solve ~timeout:0.5 ~max_cells:1000 ~warm_start:hp inst in
  Alcotest.(check bool) "feasible via warm start" true
    (r.status = Farm_optim.Milp.Feasible);
  Alcotest.(check (float 1e-9)) "warm-start utility" hp.utility
    r.placement.utility

let test_milp_migration_cost () =
  (* Seed 0 previously ran on switch 0 with 100 MB.  Seed 1 (a different
     task) can only run on switch 0 and needs 60 MB; the switch has 120 MB.
     Without history both fit (seed 0 moves to switch 1).  With history,
     moving seed 0 doubles its 100 MB on switch 0 during the state
     transfer (migr term in C4), so 100 + 60 > 120: seed 1's task cannot
     be placed in the same run. *)
  let res = Array.make Analysis.n_resources 0. in
  res.(vcpu) <- 1.;
  res.(ram) <- 100.;
  let seeds =
    [ mk_seed ~id:0 ~task:0 ~candidates:[ 0; 1 ] ~cap:10. ();
      mk_seed ~id:1 ~task:1 ~candidates:[ 0 ] ~mem:60. ~cap:10. () ]
  in
  let switches = [ mk_caps 0 ~cpu:4. ~mem:120. (); mk_caps 1 ~cpu:4. () ] in
  let free = mk_instance seeds switches in
  let r_free = Milp_formulation.solve ~timeout:20. free in
  assert_valid free r_free.placement;
  Alcotest.(check int) "without history both seeds fit" 2
    (List.length r_free.placement.assignments);
  let hist =
    mk_instance
      ~previous:[ { Model.a_seed = 0; a_node = 0; a_branch = 0; a_res = res } ]
      seeds switches
  in
  let r_hist = Milp_formulation.solve ~timeout:20. hist in
  Alcotest.(check int) "migration overhead blocks the second task" 1
    (List.length r_hist.placement.assignments)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "farm_placement"
    [ ( "model",
        [ Alcotest.test_case "validate catches violations" `Quick
            test_validate_catches_violations;
          Alcotest.test_case "poll aggregation is max" `Quick
            test_poll_aggregation_max_not_sum ] );
      ( "heuristic",
        [ Alcotest.test_case "places simple" `Quick test_heuristic_places_simple;
          Alcotest.test_case "redistribution improves" `Quick
            test_heuristic_redistribution_improves;
          Alcotest.test_case "respects capacity" `Quick
            test_heuristic_respects_capacity;
          Alcotest.test_case "C1 all-or-nothing" `Quick
            test_heuristic_c1_all_or_nothing;
          Alcotest.test_case "aggregation enables fit" `Quick
            test_heuristic_aggregation_enables_fit;
          Alcotest.test_case "prefers previous location" `Quick
            test_heuristic_prefers_previous_location;
          Alcotest.test_case "migrates for utility" `Quick
            test_heuristic_migrates_for_utility;
          Alcotest.test_case "task priority" `Quick test_heuristic_task_priority;
          Alcotest.test_case "LP solves on a 96-switch live set" `Quick
            test_lp_solves_on_live_set ]
        @ qsuite
            [ prop_heuristic_always_valid; prop_memo_matches_reference;
              prop_total_utility_matches_reference ] );
      ( "milp",
        [ Alcotest.test_case "simple optimal" `Quick test_milp_simple_optimal;
          Alcotest.test_case "beats or ties heuristic" `Slow
            test_milp_beats_or_ties_heuristic;
          Alcotest.test_case "C1 in formulation" `Quick
            test_milp_c1_in_formulation;
          Alcotest.test_case "size guard" `Quick test_milp_size_guard;
          Alcotest.test_case "migration cost" `Quick test_milp_migration_cost ] ) ]
