(* Fabric-scale simulation throughput benchmark.  Three measurements:

   1. scheduler microbench — a pure timer workload (2000 periodic timers,
      mixed sub-ms..100 ms periods) drained by the timer-wheel engine and
      by the seed binary-heap scheduler ([Farm_sched_ref.Heap_sched], the
      reference), reported as events/sec each plus the speedup;
   2. single-core sweep — a batch of independent heavy-hitter worlds run
      sequentially, reported as simulated events/sec plus the per-event
      allocation profile (bytes and minor collections, measured
      domain-locally inside each scenario);
   3. domain scaling — the same batch fanned across the requested ladder
      via Sweep.run.  Each row reports the requested and the *effective*
      domain count (Sweep clamps to the hardware by default — OCaml 5
      stop-the-world minor GCs make oversubscription a slowdown, not a
      wash), wall time, scaling and parallel efficiency.  A forced
      [~clamp:false] multi-domain run cross-checks that per-scenario
      digests stay byte-identical to the sequential run; any mismatch
      exits non-zero.

   Emits BENCH_sweep.json (override with --out FILE).  --domains D1,D2,..
   overrides the scaling ladder; --gate BASELINE.json fails the run when
   either headline events/sec falls below 90% of the baseline's
   wheel_events_per_sec / single_core_events_per_sec, or when
   alloc_bytes_per_event regresses above 115% of the baseline's;
   --gate-scaling additionally fails when the 2- or 4-domain sweep
   delivers less than 90% of single-domain throughput (the anti-scaling
   guard: parallelism must never cost throughput).

   Run via [dune build @bench-sweep] or directly:
     dune exec bench/bench_sweep.exe -- --out BENCH_sweep.json *)

open Farm
module Engine = Sim.Engine
module Rng = Sim.Rng
module Sweep = Sim.Sweep
module Heap_sched = Farm_sched_ref.Heap_sched

(* ------------------------------------------------------------------ *)
(* 1. Scheduler microbench                                             *)
(* ------------------------------------------------------------------ *)

let timer_count = 2_000
let timer_horizon = 10.
let timer_period i = 0.001 +. (0.0001 *. float_of_int (i mod 991))

let wheel_timer_bench () =
  let e = Engine.create () in
  for i = 0 to timer_count - 1 do
    ignore (Engine.every e ~period:(timer_period i) (fun _ -> ()))
  done;
  let t0 = Unix.gettimeofday () in
  Engine.run ~until:timer_horizon e;
  let dt = Unix.gettimeofday () -. t0 in
  (Engine.dispatched e, float_of_int (Engine.dispatched e) /. dt)

let heap_timer_bench () =
  let e = Heap_sched.create () in
  for i = 0 to timer_count - 1 do
    ignore (Heap_sched.every e ~period:(timer_period i) (fun _ -> ()))
  done;
  let t0 = Unix.gettimeofday () in
  Heap_sched.run ~until:timer_horizon e;
  let dt = Unix.gettimeofday () -. t0 in
  (Heap_sched.dispatched e, float_of_int (Heap_sched.dispatched e) /. dt)

(* ------------------------------------------------------------------ *)
(* 2/3. Heavy-hitter world sweep                                       *)
(* ------------------------------------------------------------------ *)

let sweep_scenarios = 8
let sweep_horizon = 1.5

type scenario_result = {
  r_events : int;
  r_digest : string;
  (* allocation profile, measured domain-locally inside the scenario
     ([Gc.allocated_bytes] and minor-collection counts are per-domain in
     OCaml 5, and a worker runs one scenario at a time, so the deltas
     are exactly this scenario's) *)
  r_alloc_bytes : float;
  r_minors : int;
}

(* Self-contained scenario per the Sweep contract: every piece of mutable
   state is created inside the call from an index-derived seed.  Returns
   the event count, the canonical simulation digest, and the scenario's
   own allocation profile (kept out of the digest: bytes allocated are
   deterministic, minor-collection counts depend on the per-domain heap
   tuning).  The profile is taken before the digest is built, so it
   measures the simulation alone. *)
let scenario i =
  let a0 = Gc.allocated_bytes () in
  let m0 = (Gc.quick_stat ()).Gc.minor_collections in
  let seed = Rng.derive_seed 0xfab ~stream:i in
  let w = World.create ~seed ~spines:2 ~leaves:8 ~hosts_per_leaf:2 () in
  (match World.deploy_catalog_task w "heavy-hitter" with
  | Ok _ -> ()
  | Error m -> failwith (Printf.sprintf "scenario %d: deploy: %s" i m));
  World.background_traffic ~flows:(32 + (8 * i)) w;
  World.run ~until:sweep_horizon w;
  let r_alloc_bytes = Gc.allocated_bytes () -. a0 in
  let r_minors = (Gc.quick_stat ()).Gc.minor_collections - m0 in
  { r_events = Engine.dispatched w.World.engine;
    r_digest = Runtime.Seeder.digest w.World.seeder; r_alloc_bytes; r_minors }

let run_sweep ?clamp ~domains () =
  let t0 = Unix.gettimeofday () in
  let results = Sweep.run ~domains ?clamp sweep_scenarios scenario in
  let dt = Unix.gettimeofday () -. t0 in
  let events = Array.fold_left (fun acc r -> acc + r.r_events) 0 results in
  (dt, events, results)

(* ------------------------------------------------------------------ *)
(* Baseline gate: minimal numeric-field extraction                     *)
(* ------------------------------------------------------------------ *)

let read_file file =
  let ic = open_in file in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let json_number s field =
  let key = Printf.sprintf "\"%s\"" field in
  let klen = String.length key and n = String.length s in
  let rec find i =
    if i + klen > n then None
    else if String.sub s i klen = key then Some (i + klen)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some i ->
      let i = ref i in
      while !i < n && (s.[!i] = ':' || s.[!i] = ' ') do incr i done;
      let j = ref !i in
      while
        !j < n
        && (match s.[!j] with '0' .. '9' | '.' | '-' | 'e' | '+' -> true | _ -> false)
      do
        incr j
      done;
      float_of_string_opt (String.sub s !i (!j - !i))

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let () =
  let out = ref "BENCH_sweep.json" in
  let ladder = ref [ 1; 2; 4; 8 ] in
  let gate = ref None in
  let gate_scaling = ref false in
  let rec parse = function
    | "--out" :: f :: rest ->
        out := f;
        parse rest
    | "--domains" :: ds :: rest ->
        ladder := List.map int_of_string (String.split_on_char ',' ds);
        parse rest
    | "--gate" :: f :: rest ->
        gate := Some f;
        parse rest
    | "--gate-scaling" :: rest ->
        gate_scaling := true;
        parse rest
    | [] -> ()
    | a :: _ -> failwith (Printf.sprintf "bench_sweep: unknown argument %s" a)
  in
  parse (List.tl (Array.to_list Sys.argv));

  let cores = Domain.recommended_domain_count () in
  Printf.printf "simulation throughput bench (%d core%s available)\n%!" cores
    (if cores = 1 then "" else "s");

  let wheel_events, wheel_eps = wheel_timer_bench () in
  let heap_events, heap_eps = heap_timer_bench () in
  assert (wheel_events = heap_events);
  let sched_speedup = wheel_eps /. heap_eps in
  Printf.printf "scheduler (%d timers, %.0f s horizon, %d events):\n"
    timer_count timer_horizon wheel_events;
  Printf.printf "  heap engine  %12.0f events/sec\n" heap_eps;
  Printf.printf "  timer wheel  %12.0f events/sec\n" wheel_eps;
  Printf.printf "  speedup      %12.2fx\n%!" sched_speedup;

  let base_dt, base_events, base_results = run_sweep ~domains:1 () in
  let base_digests = Array.map (fun r -> r.r_digest) base_results in
  let single_eps = float_of_int base_events /. base_dt in
  let alloc_bytes =
    Array.fold_left (fun acc r -> acc +. r.r_alloc_bytes) 0. base_results
  in
  let minors =
    Array.fold_left (fun acc r -> acc + r.r_minors) 0 base_results
  in
  let alloc_per_event = alloc_bytes /. float_of_int base_events in
  Printf.printf
    "sweep (%d heavy-hitter worlds, %.1f s horizon, %d events):\n"
    sweep_scenarios sweep_horizon base_events;
  Printf.printf "  1 domain   %8.2f s  %12.0f events/sec\n" base_dt single_eps;
  Printf.printf "  allocation %8.1f B/event  (%d minor collections)\n%!"
    alloc_per_event minors;

  let deterministic = ref true in
  let check_digests ~label digests =
    if digests <> base_digests then begin
      deterministic := false;
      Printf.eprintf
        "FAIL: %s sweep digests differ from the sequential run\n%!" label
    end
  in
  let rows =
    List.map
      (fun d ->
        let eff = Sweep.effective_domains ~domains:d sweep_scenarios in
        if d = 1 then (1, eff, base_dt, single_eps, 1.0)
        else begin
          let dt, events, results = run_sweep ~domains:d () in
          check_digests ~label:(Printf.sprintf "%d-domain" d)
            (Array.map (fun r -> r.r_digest) results);
          let eps = float_of_int events /. dt in
          let scaling = base_dt /. dt in
          Printf.printf
            "  %d domains (%d effective)  %8.2f s  %12.0f events/sec  (%.2fx, %.0f%% efficiency)\n%!"
            d eff dt eps scaling
            (100. *. scaling /. float_of_int eff);
          (d, eff, dt, eps, scaling)
        end)
      !ladder
  in

  (* Forced multi-domain determinism cross-check: spawn real extra
     domains even past the hardware clamp — the digests must still be
     byte-identical to the sequential run. *)
  let forced_domains = 4 in
  let _, _, forced_results =
    run_sweep ~domains:forced_domains ~clamp:false ()
  in
  check_digests
    ~label:(Printf.sprintf "forced %d-domain (clamp off)" forced_domains)
    (Array.map (fun r -> r.r_digest) forced_results);
  Printf.printf "  digests    %s (sequential vs ladder vs forced %d-domain)\n%!"
    (if !deterministic then "byte-identical" else "DIVERGED")
    forced_domains;

  let oc =
    try open_out !out
    with Sys_error m ->
      Printf.eprintf "bench_sweep: cannot write %s (%s)\n%!" !out m;
      exit 2
  in
  Printf.fprintf oc
    "{\n\
    \  \"benchmark\": \"sim_sweep_throughput\",\n\
    \  \"cores\": %d,\n\
    \  \"scheduler\": {\n\
    \    \"timers\": %d,\n\
    \    \"events\": %d,\n\
    \    \"heap_events_per_sec\": %.1f,\n\
    \    \"wheel_events_per_sec\": %.1f,\n\
    \    \"speedup\": %.2f\n\
    \  },\n\
    \  \"sweep\": {\n\
    \    \"scenarios\": %d,\n\
    \    \"events\": %d,\n\
    \    \"single_core_events_per_sec\": %.1f,\n\
    \    \"alloc_bytes_per_event\": %.1f,\n\
    \    \"minor_collections\": %d,\n\
    \    \"deterministic\": %b,\n\
    \    \"forced_domains\": %d,\n\
    \    \"domains\": [\n%s\n\
    \    ]\n\
    \  }\n\
     }\n"
    cores timer_count wheel_events heap_eps wheel_eps sched_speedup
    sweep_scenarios base_events single_eps alloc_per_event minors
    !deterministic forced_domains
    (String.concat ",\n"
       (List.map
          (fun (d, eff, dt, eps, scaling) ->
            Printf.sprintf
              "      { \"domains\": %d, \"effective\": %d, \"seconds\": %.3f, \"events_per_sec\": %.1f, \"scaling\": %.2f, \"efficiency\": %.3f }"
              d eff dt eps scaling
              (scaling /. float_of_int eff))
          rows));
  close_out oc;
  Printf.printf "wrote %s\n%!" !out;

  if not !deterministic then exit 1;

  let failed = ref false in
  if !gate_scaling then begin
    (* anti-scaling guard: asking for more domains must never cost
       throughput (>= 90% of single-domain, tolerating wall-clock noise).
       With the hardware clamp this holds even on a single-core host —
       which is exactly the point: before the clamp, 4 "parallel" domains
       delivered 0.30x. *)
    List.iter
      (fun (d, _eff, _dt, eps, _scaling) ->
        if d = 2 || d = 4 then
          if eps < 0.9 *. single_eps then begin
            Printf.eprintf
              "FAIL: %d-domain sweep %.0f events/sec is below 90%% of the \
               1-domain %.0f\n%!"
              d eps single_eps;
            failed := true
          end
          else
            Printf.printf
              "gate ok: %d-domain sweep %.0f events/sec >= 90%% of 1-domain \
               %.0f\n%!"
              d eps single_eps)
      rows
  end;

  (match !gate with
  | None -> ()
  | Some file ->
      let s =
        try read_file file
        with Sys_error m ->
          Printf.eprintf "bench_sweep: cannot read baseline %s (%s)\n%!" file m;
          exit 2
      in
      let check name current =
        match json_number s name with
        | None ->
            Printf.eprintf "bench_sweep: baseline %s lacks %s, skipping\n%!"
              file name
        | Some baseline ->
            let floor = 0.9 *. baseline in
            if current < floor then begin
              Printf.eprintf
                "FAIL: %s %.0f is below 90%% of baseline %.0f\n%!" name
                current baseline;
              failed := true
            end
            else
              Printf.printf "gate ok: %s %.0f >= 90%% of baseline %.0f\n%!"
                name current baseline
      in
      check "wheel_events_per_sec" wheel_eps;
      check "single_core_events_per_sec" single_eps;
      (* allocation is gated in the other direction: a hot-path change
         that starts allocating shows up here before it shows up as
         noise-prone wall-clock *)
      match json_number s "alloc_bytes_per_event" with
      | None ->
          Printf.eprintf
            "bench_sweep: baseline %s lacks alloc_bytes_per_event, skipping\n%!"
            file
      | Some baseline ->
          let ceiling = 1.15 *. baseline in
          if alloc_per_event > ceiling then begin
            Printf.eprintf
              "FAIL: alloc_bytes_per_event %.1f exceeds 115%% of baseline %.1f\n%!"
              alloc_per_event baseline;
            failed := true
          end
          else
            Printf.printf
              "gate ok: alloc_bytes_per_event %.1f <= 115%% of baseline %.1f\n%!"
              alloc_per_event baseline);

  if !failed then exit 1
