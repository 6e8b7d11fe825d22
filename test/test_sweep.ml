(* Tests for the domain-parallel sweep runner: results keyed by scenario
   index, exception propagation, and — the property the bench harness
   relies on — byte-identical per-scenario simulation digests whether the
   sweep runs sequentially or fanned across domains. *)

open Farm_sim

(* ------------------------------------------------------------------ *)
(* Runner mechanics                                                    *)
(* ------------------------------------------------------------------ *)

let test_sweep_indexed () =
  let r = Sweep.run ~domains:4 ~clamp:false 100 (fun i -> i * i) in
  Alcotest.(check (array int))
    "results land at their scenario index"
    (Array.init 100 (fun i -> i * i))
    r

let test_sweep_degenerate () =
  Alcotest.(check (array int)) "n = 0" [||] (Sweep.run ~domains:4 ~clamp:false 0 (fun i -> i));
  Alcotest.(check (array int)) "single domain" [| 1; 2; 3 |]
    (Sweep.run ~domains:1 3 (fun i -> i + 1));
  Alcotest.(check (array int)) "more domains than scenarios" [| 0; 10 |]
    (Sweep.run ~domains:8 ~clamp:false 2 (fun i -> i * 10))

let test_sweep_map () =
  let a = [| "a"; "bb"; "ccc"; "dddd" |] in
  Alcotest.(check (array int)) "map over array" [| 1; 2; 3; 4 |]
    (Sweep.map ~domains:3 ~clamp:false a String.length)

exception Boom of int

let test_sweep_exception () =
  match Sweep.run ~domains:4 ~clamp:false 64 (fun i -> if i = 37 then raise (Boom i) else i) with
  | _ -> Alcotest.fail "expected the scenario exception to propagate"
  | exception Boom 37 -> ()
  | exception e ->
      Alcotest.failf "wrong exception propagated: %s" (Printexc.to_string e)

let test_sweep_default_domains () =
  Alcotest.(check bool) "at least one domain" true (Sweep.default_domains () >= 1)

(* ------------------------------------------------------------------ *)
(* Parallel vs sequential determinism on real simulations              *)
(* ------------------------------------------------------------------ *)

(* A self-contained scenario: all state (engine, fabric, RNG) is built
   inside the call from an index-derived seed, as the Sweep contract
   requires.  The canonical [Seeder.digest] captures everything
   downstream consumers read. *)
let scenario_digest i =
  let seed = Rng.derive_seed 7 ~stream:i in
  let w =
    Farm.World.create ~seed ~spines:2 ~leaves:3 ~hosts_per_leaf:1 ()
  in
  (match Farm.World.deploy_catalog_task w "heavy-hitter" with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "scenario %d: heavy-hitter deploy: %s" i m);
  Farm.World.background_traffic ~flows:(8 + (4 * i)) w;
  Farm.World.run ~until:0.3 w;
  Farm.Runtime.Seeder.digest w.Farm.World.seeder

let test_sweep_parallel_deterministic () =
  let n = 6 in
  let sequential = Sweep.run ~domains:1 n scenario_digest in
  let parallel = Sweep.run ~domains:4 ~clamp:false n scenario_digest in
  Alcotest.(check (array string))
    "parallel digests byte-identical to sequential" sequential parallel;
  (* and a second parallel run agrees with the first *)
  let parallel' = Sweep.run ~domains:4 ~clamp:false n scenario_digest in
  Alcotest.(check (array string)) "parallel rerun stable" parallel parallel'


(* ------------------------------------------------------------------ *)
(* Determinism with the full observability + overload stack armed      *)
(* ------------------------------------------------------------------ *)

(* A scenario running everything at once: trace sink attached and
   overload protection armed.  The digest covers the simulation state
   and the full Chrome-JSON trace stream, so any domain-count dependence
   anywhere in that stack fails the property. *)
let armed_traced_digest base i =
  let seed = Rng.derive_seed base ~stream:i in
  let w =
    Farm.World.create ~seed ~spines:2 ~leaves:3 ~hosts_per_leaf:1
      ~seeder_config:Farm.Runtime.Seeder.overload_defaults ()
  in
  let tr = Trace.create () in
  Engine.set_tracer w.Farm.World.engine (Some tr);
  (match Farm.World.deploy_catalog_task w "heavy-hitter" with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "scenario %d: heavy-hitter deploy: %s" i m);
  Farm.World.background_traffic ~flows:(8 + (4 * i)) w;
  Farm.World.run ~until:0.3 w;
  Farm.Runtime.Seeder.digest w.Farm.World.seeder ^ Trace.to_chrome_json tr

let prop_sweep_armed_traced_invariant =
  QCheck2.Test.make
    ~name:"1/2/4-domain sweeps byte-identical (traced, overload armed)"
    ~count:3
    QCheck2.Gen.(int_range 1 10_000)
    (fun base ->
      let digests d =
        Sweep.run ~domains:d ~clamp:false 4 (armed_traced_digest base)
      in
      let d1 = digests 1 in
      d1 = digests 2 && d1 = digests 4)

(* Worker GC tuning must not leak: the calling domain's GC parameters
   are identical before and after a parallel sweep (the caller
   participates as a worker, so this exercises the snapshot/restore). *)
let test_sweep_gc_tune_no_leak () =
  let before = Gc.get () in
  let r =
    Sweep.run ~domains:4 ~clamp:false 16 (fun i ->
        (* allocate enough that workers actually exercise their heaps *)
        Array.length (Array.make (1024 * (1 + (i mod 4))) i))
  in
  Alcotest.(check int) "sweep ran" 16 (Array.length r);
  let after = Gc.get () in
  Alcotest.(check int)
    "minor_heap_size restored" before.Gc.minor_heap_size
    after.Gc.minor_heap_size;
  Alcotest.(check int)
    "space_overhead untouched" before.Gc.space_overhead
    after.Gc.space_overhead

let () =
  Alcotest.run "farm_sweep"
    [ ( "runner",
        [ Alcotest.test_case "indexed results" `Quick test_sweep_indexed;
          Alcotest.test_case "degenerate shapes" `Quick test_sweep_degenerate;
          Alcotest.test_case "map" `Quick test_sweep_map;
          Alcotest.test_case "exception propagation" `Quick
            test_sweep_exception;
          Alcotest.test_case "default domains" `Quick
            test_sweep_default_domains ] );
      ( "determinism",
        [ Alcotest.test_case "parallel = sequential" `Quick
            test_sweep_parallel_deterministic;
          QCheck_alcotest.to_alcotest prop_sweep_armed_traced_invariant ] );
      ( "gc",
        [ Alcotest.test_case "worker tuning does not leak" `Quick
            test_sweep_gc_tune_no_leak ] ) ]
