(* Fig. 7: global seed placement optimization at scale — monitoring
   utility (a) and runtime (b) of FARM's heuristic vs the MILP solved by a
   commodity-style branch-and-bound with a timeout ("Gurobi" role).

   1040 switches, up to 10200 seeds from 10 task profiles, randomized
   demands per run.  The 1 s-budget MILP starts from a naive first-fit
   incumbent; the long-budget MILP is MIP-started from the heuristic
   solution (standard warm-start practice).  At these sizes the dense root
   relaxation trips [Milp_formulation.solve]'s size guard, which hands back
   the warm start: both MILP columns are their incumbents, and FARM/long
   is 1.00 by construction. *)

open Farm
module Model = Placement.Model
module Heuristic = Placement.Heuristic
module Milp_formulation = Placement.Milp_formulation
module Rng = Sim.Rng

let switches = 1040
let runs = 3
let gurobi_short = 1.0
let gurobi_long = 20.0  (* stands in for the paper's 10 min budget *)

(* naive first-fit incumbent: what a solver's presolve heuristic finds
   immediately — minimal allocations, first candidate with room *)
let naive_placement (inst : Model.instance) =
  let remaining = Hashtbl.create 64 in
  List.iter
    (fun (c : Model.switch_caps) ->
      Hashtbl.replace remaining c.node (Array.copy c.avail))
    inst.switches;
  let assignments = ref [] in
  List.iter
    (fun (t, seeds) ->
      ignore t;
      let placed =
        List.filter_map
          (fun (s : Model.seed_spec) ->
            match s.branches with
            | [] -> None
            | branch :: _ ->
                (* minimal feasible point: constraint lower bounds *)
                let res = Array.make Farm_almanac.Analysis.n_resources 0. in
                List.iter
                  (fun c ->
                    (* c is lin >= 0 with single-variable constraints in
                       the random instances: x_r - k >= 0 *)
                    List.iter
                      (fun (v, coef) ->
                        if coef > 0. then
                          res.(v) <-
                            Float.max res.(v)
                              (-.Optim.Lin_expr.constant c /. coef))
                      (Optim.Lin_expr.coeffs c))
                  branch.constraints;
                let fits n =
                  match Hashtbl.find_opt remaining n with
                  | None -> false
                  | Some rem ->
                      Array.for_all Fun.id
                        (Array.mapi (fun r v -> res.(r) <= v) rem)
                in
                (match List.find_opt fits s.candidates with
                | None -> None
                | Some n ->
                    let rem = Hashtbl.find remaining n in
                    Array.iteri (fun r _ -> rem.(r) <- rem.(r) -. res.(r)) res;
                    Some { Model.a_seed = s.seed_id; a_node = n; a_branch = 0;
                           a_res = res }))
          seeds
      in
      (* C1: all-or-nothing *)
      if List.length placed = List.length seeds then
        assignments := placed @ !assignments)
    (Model.tasks inst);
  let assignments = !assignments in
  { Model.assignments; utility = Model.total_utility inst assignments }

let one_run ~seeds ~seed =
  let rng = Rng.create seed in
  let inst =
    Model.random_instance ~rng ~switches ~tasks:10
      ~seeds_per_task:(seeds / 10) ()
  in
  let t0 = Unix.gettimeofday () in
  let farm, _stats = Heuristic.optimize inst in
  let farm_time = Unix.gettimeofday () -. t0 in
  let naive = naive_placement inst in
  let short =
    Milp_formulation.solve ~timeout:gurobi_short ~warm_start:naive inst
  in
  let long =
    Milp_formulation.solve ~timeout:gurobi_long ~warm_start:farm inst
  in
  ( (farm.utility, farm_time),
    (short.placement.utility, short.runtime_s),
    (long.placement.utility, long.runtime_s) )

let run () =
  Bench_common.section
    (Printf.sprintf
       "Fig. 7: placement utility and runtime, %d switches, %d runs/point"
       switches runs);
  let sweep = [ 1000; 4000; 7000; 10200 ] in
  let rows =
    List.map
      (fun seeds ->
        let results =
          List.init runs (fun i -> one_run ~seeds ~seed:(100 + i))
        in
        let pick f = Bench_common.mean (List.map f results) in
        let fu = pick (fun ((u, _), _, _) -> u) in
        let ft = pick (fun ((_, t), _, _) -> t) in
        let su = pick (fun (_, (u, _), _) -> u) in
        let st = pick (fun (_, (_, t), _) -> t) in
        let lu = pick (fun (_, _, (u, _)) -> u) in
        let lt = pick (fun (_, _, (_, t)) -> t) in
        [ string_of_int seeds;
          Printf.sprintf "%.0f" fu; Bench_common.fmt_time ft;
          Printf.sprintf "%.0f" su; Bench_common.fmt_time st;
          Printf.sprintf "%.0f" lu; Bench_common.fmt_time lt;
          Printf.sprintf "%.2f" (fu /. Float.max lu 1e-9) ])
      sweep
  in
  Bench_common.table
    [ "Seeds"; "FARM util"; "FARM time"; "MILP-1s util"; "MILP-1s time";
      "MILP-long util"; "MILP-long time"; "FARM/long" ]
    rows;
  Printf.printf
    "\n(paper: FARM matches the 10-min MILP's utility at the 1-s MILP's \
     speed)\n%!"
