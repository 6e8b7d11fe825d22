(* farmc — the Almanac compiler / task driver CLI.

   Subcommands:
     farmc check <file.alm>      parse + type-check
     farmc lint <file.alm>...    full static verification (P/T/L/B codes)
     farmc verify <file.alm>...  symbolic verification: translation
                                 validation (V401/V402), invariant and
                                 range proofs (V403/V404), reach-backed
                                 L101/L102/L107
     farmc format <file.alm>     pretty-print the parsed program
     farmc compile <file.alm>    emit the XML interchange form
     farmc analyze <file.alm>    run the seeder's static analyses
     farmc tasks                 list the built-in Table I catalog
     farmc run <task> [-d SECS]  simulate a catalog task under its workload
     farmc sweep <task> [-n N]   run N seeded replicas across a domain pool
     farmc trace [task]          traced replay: Chrome trace_event JSON +
                                 metrics snapshot (--check: determinism
                                 self-test across replays and domain counts)

   All commands report problems as positioned diagnostics
   (file:line:col: severity[CODE]: message) on stderr. *)

open Farm
open Cmdliner
module Diagnostic = Almanac.Diagnostic

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let check_program path =
  Result.map_error (Diagnostic.with_file path)
    (Almanac.Frontend.load (read_file path))

let or_die = function
  | Ok v -> v
  | Error ds ->
      Diagnostic.print_all stderr ds;
      exit 1

let find_task name =
  try Tasks.Catalog.find name
  with Invalid_argument m ->
    prerr_endline m;
    exit 1

(* ---------------- check ---------------- *)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.alm")

let check_cmd =
  let run file =
    let p = or_die (check_program file) in
    Printf.printf "%s: ok (%d machine(s), %d auxiliary function(s))\n" file
      (List.length p.machines) (List.length p.funcs)
  in
  Cmd.v (Cmd.info "check" ~doc:"Parse and type-check an Almanac program")
    Term.(const run $ file_arg)

(* ---------------- lint ---------------- *)

let ref_topo () = Net.Topology.spine_leaf ~spines:2 ~leaves:4 ~hosts_per_leaf:2

(* cross-task conflicts over a set of linted programs, on the reference
   fabric *)
let conflict_diags linted =
  let topo = ref_topo () in
  let profiles =
    List.filter_map
      (fun (name, externals, p) ->
        match p with
        | None -> None
        | Some p ->
            let summaries =
              List.filter_map Result.to_option
                (Almanac.Frontend.analyze ~topo ~externals p)
            in
            Some (Placement.Conflict.profile ~task:name summaries))
      linted
  in
  Placement.Conflict.check profiles

let lint_cmd =
  let files_arg = Arg.(value & pos_all file [] & info [] ~docv:"FILE.alm") in
  let catalog_arg =
    Arg.(
      value & flag
      & info [ "catalog" ] ~doc:"Also lint every built-in catalog task")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit diagnostics as a JSON array on stdout")
  in
  let run files catalog json =
    let model = Runtime.Soil.bounds_model in
    let file_results =
      List.map
        (fun path ->
          let ds, p = Almanac.Frontend.lint ~model ~file:path (read_file path) in
          (path, ([] : (string * (string * Almanac.Value.t) list) list), p, ds))
        files
    in
    let catalog_results =
      if not catalog then []
      else
        List.map
          (fun (e : Tasks.Task_common.entry) ->
            let file = "catalog:" ^ e.name in
            let ds, p =
              Almanac.Frontend.lint ~model ~file ~extra:e.extra_sigs
                ~externals:e.externals e.source
            in
            (file, e.externals, p, ds))
          Tasks.Catalog.all
    in
    let results = file_results @ catalog_results in
    let conflicts =
      conflict_diags (List.map (fun (n, ex, p, _) -> (n, ex, p)) results)
    in
    let all =
      Diagnostic.sort (List.concat_map (fun (_, _, _, ds) -> ds) results)
      @ conflicts
    in
    if json then print_string (Almanac.Diagnostic.to_json all)
    else begin
      Diagnostic.print_all stdout all;
      let errors = List.length (List.filter Diagnostic.is_error all) in
      Printf.printf "%d program(s): %d error(s), %d warning(s)\n"
        (List.length results) errors
        (List.length all - errors)
    end;
    if Diagnostic.has_errors all then exit 1
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically verify Almanac programs: positioned parse/type errors, \
          lint checks (unreachable states, dead transitions, unused \
          variables and subscriptions, non-linear util, missing externals, \
          livelocks), resource-bound cross-checks and cross-task conflicts")
    Term.(const run $ files_arg $ catalog_arg $ json_arg)

(* ---------------- verify (symbolic, §V-A e) ---------------- *)

(* Symbolically verify one program: per-handler translation validation
   (V401/V402), invariant + range proofs (V403/V404), and the
   reachability-backed L101/L102/L107 verdicts. *)
let verify_program ~file ?extra ?host_builtins ?budget source =
  Diagnostic.with_file file
    (match Almanac.Frontend.load ?extra source with
    | Error ds -> ds
    | Ok p -> Almanac.Frontend.verify_report ?budget ?host_builtins p)

let verify_cmd =
  let files_arg = Arg.(value & pos_all file [] & info [] ~docv:"FILE.alm") in
  let catalog_arg =
    Arg.(
      value & flag
      & info [ "catalog" ] ~doc:"Also verify every built-in catalog task")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit diagnostics as a JSON array on stdout")
  in
  let max_paths_arg =
    Arg.(
      value & opt int 0
      & info [ "max-paths" ] ~docv:"N"
          ~doc:
            "Symbolic path budget per handler unit (0 = default).  Raise it \
             when V402 reports an exhausted budget.")
  in
  let run files catalog json max_paths =
    let budget =
      if max_paths <= 0 then None
      else
        Some { Almanac.Symexec.default_budget with max_paths }
    in
    let file_diags =
      List.map
        (fun path -> verify_program ~file:path ?budget (read_file path))
        files
    in
    let catalog_diags =
      if not catalog then []
      else
        List.map
          (fun (e : Tasks.Task_common.entry) ->
            verify_program ~file:("catalog:" ^ e.name) ~extra:e.extra_sigs
              ~host_builtins:(List.map fst e.builtins)
              ?budget e.source)
          Tasks.Catalog.all
    in
    let n_programs = List.length file_diags + List.length catalog_diags in
    let all = Diagnostic.sort (List.concat (file_diags @ catalog_diags)) in
    if json then print_string (Diagnostic.to_json all)
    else begin
      Diagnostic.print_all stdout all;
      let errors = List.length (List.filter Diagnostic.is_error all) in
      Printf.printf "%d program(s) verified: %d error(s), %d warning(s)\n"
        n_programs errors
        (List.length all - errors)
    end;
    if Diagnostic.has_errors all then exit 1
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Symbolically verify Almanac programs: per-handler translation \
          validation of the compiled slot-indexed plan against the \
          reference semantics (V401 divergence, V402 exhausted path \
          budget), assert(..) invariant proofs with concrete witnesses \
          (V403), value-range safety (V404), and reachability-backed \
          unreachable-state / dead-transit / livelock verdicts \
          (L101/L102/L107)")
    Term.(const run $ files_arg $ catalog_arg $ json_arg $ max_paths_arg)

(* ---------------- format ---------------- *)

let format_cmd =
  let run file =
    let p = or_die (check_program file) in
    print_string (Almanac.Pretty.program_to_string p)
  in
  Cmd.v (Cmd.info "format" ~doc:"Pretty-print an Almanac program")
    Term.(const run $ file_arg)

(* ---------------- compile (XML interchange, §V-A d) ---------------- *)

let compile_cmd =
  let run file =
    let p = or_die (check_program file) in
    print_string (Almanac.Machine_xml.compile p)
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:
         "Compile an Almanac program to the XML interchange form the           seeder ships to switches")
    Term.(const run $ file_arg)

(* ---------------- analyze ---------------- *)

let analyze_cmd =
  let run file =
    let p = or_die (check_program file) in
    List.iter2
      (fun (m : Almanac.Ast.machine) analysis ->
        Printf.printf "machine %s\n" m.mname;
        match analysis with
        | Error e -> Printf.printf "  analysis error: %s\n" e
        | Ok ((s : Almanac.Analysis.summary), _) ->
            Printf.printf "  seeds (on a 2x4 spine-leaf reference fabric): %d\n"
              (List.length s.seeds);
            List.iter
              (fun (state, branches) ->
                Printf.printf "  state %s: %d utility branch(es)\n" state
                  (List.length branches);
                List.iter
                  (fun (b : Almanac.Analysis.util_branch) ->
                    List.iter
                      (fun c ->
                        Printf.printf "    constraint %s >= 0\n"
                          (Optim.Lin_expr.to_string c))
                      b.constraints;
                    Printf.printf "    utility min(%s)\n"
                      (String.concat ", "
                         (List.map Optim.Lin_expr.to_string b.utility)))
                  branches)
              s.state_utils;
            List.iter
              (fun (pv : Almanac.Analysis.poll_summary) ->
                Printf.printf "  %s %s: subjects [%s]\n"
                  (Almanac.Ast.trigger_type_to_string pv.ptrig)
                  pv.poll_name
                  (String.concat "; "
                     (List.map
                        (fun subj ->
                          Format.asprintf "%a" Net.Filter.pp_subject subj)
                        pv.subjects)))
              s.poll_vars)
      p.machines
      (Almanac.Frontend.analyze ~topo:(ref_topo ()) p)
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Run the seeder's static analyses (placement, utility, polling)")
    Term.(const run $ file_arg)

(* ---------------- tasks ---------------- *)

let tasks_cmd =
  let run () =
    List.iter
      (fun (e : Tasks.Task_common.entry) ->
        Printf.printf "%-40s %s\n" e.name e.description)
      Tasks.Catalog.all
  in
  Cmd.v (Cmd.info "tasks" ~doc:"List the built-in Table I task catalog")
    Term.(const run $ const ())

(* ---------------- run ---------------- *)

(* The incident [run] and [trace] replay, so detection tasks have
   something to find: background flows, then from a third of the way in
   a SYN flood on one host and a heavy hitter. *)
let incident (world : World.t) ~duration =
  World.background_traffic ~flows:50 world;
  let victim = Net.Ipaddr.of_string "10.2.1.9" in
  Net.Traffic.syn_flood world.engine world.fabric world.rng
    ~at:(duration /. 3.) ~duration:(duration /. 2.) ~victim
    ~rate_per_source:200_000. ~sources:60;
  ignore
    (Net.Traffic.heavy_hitter world.engine world.fabric world.rng
       ~at:(duration /. 3.) ~rate:2e7 ())

let run_cmd =
  let task_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TASK")
  in
  let duration_arg =
    Arg.(value & opt float 5. & info [ "d"; "duration" ] ~docv:"SECONDS")
  in
  let overload_arg =
    Arg.(
      value & flag
      & info [ "overload" ]
          ~doc:
            "Arm the overload-protection stack: bounded PCIe/inbox queues \
             with load shedding, AIMD degraded-mode seeds, and \
             control-channel rate limiting with per-switch circuit \
             breakers.  Without it the same code runs at unlimited \
             limits: nothing is shed, delayed or refused.")
  in
  let run name duration overload =
    let entry = find_task name in
    let world =
      if overload then
        World.create ~seeder_config:Runtime.Seeder.overload_defaults ()
      else World.create ()
    in
    let task =
      match
        Runtime.Seeder.deploy world.seeder
          (Tasks.Task_common.to_task_spec entry)
      with
      | Ok t ->
          (* surface non-blocking deploy-time diagnostics (lint warnings,
             cross-task conflicts) *)
          Diagnostic.print_all stderr
            (Runtime.Seeder.last_deploy_diagnostics world.seeder);
          t
      | Error m ->
          prerr_endline m;
          exit 1
    in
    Printf.printf "deployed %s: %d seeds on %d switches\n" name
      (List.length (Runtime.Seeder.seeds world.seeder task))
      (List.length (Net.Topology.switches world.topology));
    incident world ~duration;
    World.run ~until:duration world;
    let h = Runtime.Seeder.harvester task in
    Printf.printf "simulated %.1fs: %d harvester message(s)\n" duration
      (Runtime.Harvester.received_count h);
    List.iteri
      (fun i (t, sw, v) ->
        if i < 10 then
          Printf.printf "  t=%.3fs  switch %d: %s\n" t sw
            (Almanac.Value.to_string v))
      (List.rev (Runtime.Harvester.received h));
    if overload then begin
      let seeder = world.seeder in
      let shed, peak =
        List.fold_left
          (fun (shed, peak) soil ->
            match Runtime.Soil.overload_stats soil with
            | Some st ->
                (shed + st.Runtime.Soil.o_shed,
                 max peak st.Runtime.Soil.o_queue_peak)
            | None -> (shed, peak))
          (0, 0)
          (Runtime.Seeder.soils seeder)
      in
      Printf.printf
        "overload: pcie shed %d poll(s) (queue peak %d), inbox shed %d of %d \
         offered\n"
        shed peak
        (Runtime.Harvester.shed_count h)
        (Runtime.Harvester.offered_count h);
      Printf.printf
        "overload: ctrl rate-limited %d, breaker dropped %d (%d open(s)), \
         retries capped %d\n"
        (Runtime.Control.rate_limited (Runtime.Seeder.control seeder))
        (Runtime.Control.breaker_dropped (Runtime.Seeder.control seeder))
        (Runtime.Control.breaker_opens (Runtime.Seeder.control seeder))
        (Runtime.Control.retry_capped (Runtime.Seeder.control seeder));
      Printf.printf "overload: %d pressure event(s); seeds degraded now: %d\n"
        (Runtime.Seeder.pressure_events seeder)
        (List.length
           (List.filter
              (fun e -> Runtime.Seed_exec.degradation e > 0.)
              (Runtime.Seeder.seeds seeder task)))
    end
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Deploy a catalog task on a simulated DC and run it")
    Term.(const run $ task_arg $ duration_arg $ overload_arg)

(* ---------------- sweep ---------------- *)

let sweep_cmd =
  let task_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TASK")
  in
  let runs_arg =
    Arg.(value & opt int 8 & info [ "n"; "runs" ] ~docv:"RUNS")
  in
  let duration_arg =
    Arg.(value & opt float 5. & info [ "d"; "duration" ] ~docv:"SECONDS")
  in
  let domains_arg =
    Arg.(
      value & opt int 0
      & info [ "j"; "domains" ] ~docv:"DOMAINS"
          ~doc:"Domain pool size (0 = one per available core).")
  in
  let run name runs duration domains =
    let entry = find_task name in
    let domains =
      if domains <= 0 then Sim.Sweep.default_domains () else domains
    in
    (* each replica builds its whole world from an index-derived seed, as
       the Sweep contract requires *)
    let results =
      Sim.Sweep.run ~domains runs (fun i ->
          let seed = Sim.Rng.derive_seed 42 ~stream:i in
          let world = World.create ~seed () in
          match
            Runtime.Seeder.deploy world.seeder
              (Tasks.Task_common.to_task_spec entry)
          with
          | Error m -> failwith (Printf.sprintf "replica %d: %s" i m)
          | Ok task ->
              World.background_traffic ~flows:50 world;
              World.run ~until:duration world;
              let h = Runtime.Seeder.harvester task in
              ( seed,
                Sim.Engine.dispatched world.engine,
                Runtime.Harvester.received_count h,
                Runtime.Seeder.current_utility world.seeder ))
    in
    Printf.printf "%d replica(s) of %s, %.1f s each, on %d domain(s):\n" runs
      name duration domains;
    Array.iteri
      (fun i (seed, events, msgs, utility) ->
        Printf.printf
          "  replica %2d  seed %-19d %9d events %5d message(s)  utility %.3f\n"
          i seed events msgs utility)
      results
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Run independent seeded replicas of a catalog task on a domain pool")
    Term.(const run $ task_arg $ runs_arg $ duration_arg $ domains_arg)

(* ---------------- trace ---------------- *)

let trace_cmd =
  let task_arg =
    Arg.(value & pos 0 string "heavy-hitter" & info [] ~docv:"TASK")
  in
  let duration_arg =
    Arg.(value & opt float 1. & info [ "d"; "duration" ] ~docv:"SECONDS")
  in
  let out_arg =
    Arg.(
      value & opt string "trace.json"
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Chrome trace_event output file.")
  in
  let metrics_arg =
    Arg.(
      value & opt string "metrics.json"
      & info [ "metrics" ] ~docv:"FILE" ~doc:"Metrics snapshot output file.")
  in
  let ring_arg =
    Arg.(
      value & opt int 0
      & info [ "ring" ] ~docv:"N"
          ~doc:
            "Keep only the last $(docv) events (flight-recorder mode); 0 \
             keeps everything.")
  in
  let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED") in
  let check_arg =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Determinism self-test instead of writing files: the \
             simulation digest and the traced event stream must be \
             byte-identical across two replays and across 1 vs 4 sweep \
             domains.  Exits non-zero on divergence.")
  in
  (* One traced replica.  The sink is attached before deploy so the seed
     executors wire their handler-dispatch hooks; every event is stamped
     with simulation time, so the emitted JSON is a pure function of
     (task, seed, duration, ring). *)
  let replica entry ~ring ~seed ~duration =
    let world = World.create ~seed () in
    let tr = Sim.Trace.create ~ring () in
    Sim.Engine.set_tracer world.engine (Some tr);
    match
      Runtime.Seeder.deploy world.seeder (Tasks.Task_common.to_task_spec entry)
    with
    | Error m ->
        prerr_endline m;
        exit 1
    | Ok _task ->
        incident world ~duration;
        World.run ~until:duration world;
        (world, tr)
  in
  (* what the determinism checks compare: the canonical simulation digest
     plus the traced event stream *)
  let digest (world, tr) =
    Runtime.Seeder.digest world.World.seeder ^ Sim.Trace.to_chrome_json tr
  in
  let run name duration out metrics_out ring seed check =
    let entry = find_task name in
    if check then begin
      (* replay determinism *)
      let d1 = digest (replica entry ~ring ~seed ~duration) in
      let d2 = digest (replica entry ~ring ~seed ~duration) in
      let replay_ok = String.equal d1 d2 in
      Printf.printf "replay:  %s (%d bytes)\n"
        (if replay_ok then "byte-identical" else "DIVERGED")
        (String.length d1);
      if not replay_ok then begin
        (* keep the diverging streams around for post-mortem diffing *)
        let dump path s =
          let oc = open_out_bin path in
          output_string oc s;
          close_out oc
        in
        dump (out ^ ".replay1") d1;
        dump (out ^ ".replay2") d2;
        Printf.eprintf "diverging streams dumped to %s.replay{1,2}\n" out
      end;
      (* domain-count invariance: 4 replicas traced on 1 vs 4 domains *)
      let sweep domains =
        Sim.Sweep.run ~domains ~clamp:false 4 (fun i ->
            let seed = Sim.Rng.derive_seed seed ~stream:i in
            digest (replica entry ~ring ~seed ~duration))
      in
      let seq = sweep 1 and par = sweep 4 in
      let domains_ok = seq = par in
      Printf.printf "domains: %s (1 vs 4, %d replicas)\n"
        (if domains_ok then "byte-identical" else "DIVERGED")
        (Array.length seq);
      if not (replay_ok && domains_ok) then exit 1
    end
    else begin
      let world, tr = replica entry ~ring ~seed ~duration in
      let json = Sim.Trace.to_chrome_json tr
      and metrics =
        Sim.Metrics.Registry.to_json (Sim.Engine.metrics world.World.engine)
      in
      let write path s =
        let oc = open_out_bin path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> output_string oc s)
      in
      write out json;
      write metrics_out metrics;
      Printf.printf
        "traced %s for %.2fs: %d event(s)%s -> %s, metrics -> %s\n" name
        duration (Sim.Trace.count tr)
        (if Sim.Trace.dropped tr > 0 then
           Printf.sprintf " (%d overwritten by --ring)" (Sim.Trace.dropped tr)
         else "")
        out metrics_out
    end
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Replay a catalog scenario with simulation-time tracing and write \
          Chrome trace_event JSON (Perfetto-compatible) plus a metrics \
          snapshot")
    Term.(
      const run $ task_arg $ duration_arg $ out_arg $ metrics_arg $ ring_arg
      $ seed_arg $ check_arg)

let () =
  let doc = "the Almanac compiler and FARM task driver" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "farmc" ~version:"1.0.0" ~doc)
          [ check_cmd; lint_cmd; verify_cmd; format_cmd; compile_cmd;
            analyze_cmd; tasks_cmd; run_cmd; sweep_cmd; trace_cmd ]))
