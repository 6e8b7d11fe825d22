(* Bechamel micro-benchmarks of the hot code paths: simplex solves,
   placement heuristic, Almanac parsing and interpretation. *)

open Farm
open Bechamel
open Toolkit

let lp_test =
  let x = Optim.Lin_expr.var 0 and y = Optim.Lin_expr.var 1 in
  let objective = Optim.Lin_expr.add (Optim.Lin_expr.scale 3. x) y in
  let constraints =
    [ Optim.Simplex.constr (Optim.Lin_expr.add x y) Optim.Simplex.Le 10.;
      Optim.Simplex.constr
        Optim.Lin_expr.(add (scale 2. x) (scale 0.5 y))
        Optim.Simplex.Le 8. ]
  in
  Test.make ~name:"simplex: 2-var LP" (Staged.stage (fun () ->
      ignore (Optim.Simplex.maximize ~nvars:2 ~objective constraints)))

let heuristic_test =
  let rng = Sim.Rng.create 9 in
  let inst =
    Placement.Model.random_instance ~rng ~switches:20 ~tasks:5
      ~seeds_per_task:20 ()
  in
  Test.make ~name:"heuristic: 100 seeds / 20 switches"
    (Staged.stage (fun () -> ignore (Placement.Heuristic.optimize inst)))

let parse_test =
  let source = (Tasks.Catalog.find "heavy-hitter").source in
  Test.make ~name:"almanac: parse+check HH"
    (Staged.stage (fun () ->
         ignore (Almanac.Typecheck.check (Almanac.Parser.program source))))

let interp_test =
  let source = (Tasks.Catalog.find "heavy-hitter").source in
  let program = Almanac.Typecheck.check (Almanac.Parser.program source) in
  let t =
    Almanac.Interp.create ~program ~machine:"HH" Almanac.Host.null_host
  in
  Almanac.Interp.start t;
  let stats = Almanac.Value.Stats (Array.make 16 100.) in
  Test.make ~name:"almanac: HH poll activation (interp)"
    (Staged.stage (fun () -> Almanac.Interp.fire_trigger t "pollStats" stats))

let compiled_test =
  let source = (Tasks.Catalog.find "heavy-hitter").source in
  let program = Almanac.Typecheck.check (Almanac.Parser.program source) in
  let t = Almanac.Exec.create ~program ~machine:"HH" Almanac.Host.null_host in
  Almanac.Exec.start t;
  let stats = Almanac.Value.Stats (Array.make 16 100.) in
  let fire = Almanac.Exec.prepare_trigger t "pollStats" in
  Test.make ~name:"almanac: HH poll activation (compiled)"
    (Staged.stage (fun () -> fire stats))

let run () =
  Bench_common.section "Micro-benchmarks (bechamel)";
  let tests =
    [ lp_test; heuristic_test; parse_test; interp_test; compiled_test ]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) () in
  List.iter
    (fun test ->
      let results =
        Benchmark.all cfg instances test
        |> fun r -> Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false
                                   ~predictors:[| Measure.run |]) Instance.monotonic_clock r
      in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] ->
              Printf.printf "%-40s %s/run\n%!" name
                (Bench_common.fmt_time (est *. 1e-9))
          | _ -> Printf.printf "%-40s (no estimate)\n%!" name)
        results)
    tests
