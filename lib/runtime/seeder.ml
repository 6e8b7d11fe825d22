module Engine = Farm_sim.Engine
module Metrics = Farm_sim.Metrics
module Value = Farm_almanac.Value
module Ast = Farm_almanac.Ast
module Typecheck = Farm_almanac.Typecheck
module Analysis = Farm_almanac.Analysis
module Host = Farm_almanac.Host
module Frontend = Farm_almanac.Frontend
module Diagnostic = Farm_almanac.Diagnostic
module Model = Farm_placement.Model
module Heuristic = Farm_placement.Heuristic
module Conflict = Farm_placement.Conflict
module Fabric = Farm_net.Fabric
module Switch_model = Farm_net.Switch_model
module Int_map = Map.Make (Int)
module Int_set = Set.Make (Int)
module Trace = Farm_sim.Trace

let n_instantiate = Trace.key "instantiate"
let n_migrate = Trace.key "migrate"
let n_report_storm = Trace.key "report_storm"
let k_seed = Trace.key "seed"
let k_node = Trace.key "node"
let k_epoch = Trace.key "epoch"
let k_from = Trace.key "from"
let k_to = Trace.key "to"
let k_reports = Trace.key "reports"

type config = {
  soil_config : Soil.config;
  engine : Farm_almanac.Engine.engine;
  refuse_conflicts : bool;
  verify_on_deploy : bool;
  (* self-healing control plane *)
  auto_heal : bool;
  heartbeat_interval : float;
  detection_timeout : float;
  checkpoint_interval : float;
  checkpoint_full_every : int;
  (* overload resilience; unlimited by default *)
  ctrl_protection : Control.protection;
  harvester_overload : Harvester.overload_config;
}

let default_config =
  { soil_config = Soil.default_config;
    engine = `Compiled;
    refuse_conflicts = false;
    verify_on_deploy = false;
    auto_heal = false;
    heartbeat_interval = 10e-3;
    detection_timeout = 35e-3;  (* > 3 missed beats at the default rate *)
    checkpoint_interval = 50e-3;
    checkpoint_full_every = 4;
    ctrl_protection = Control.unlimited;
    harvester_overload = Harvester.unlimited }

(* every overload-protection layer switched on at its default settings *)
let overload_defaults =
  { default_config with
    soil_config =
      { Soil.default_config with overload = Some Soil.default_overload };
    ctrl_protection = Control.default_protection;
    harvester_overload = Harvester.default_overload }

let message_overhead_bytes = 64.  (* framing per control message *)
let migration_time = 5e-3  (* seed state-transfer duration *)

type task_spec = {
  ts_name : string;
  ts_source : string;
  ts_externals : (string * (string * Value.t) list) list;
  ts_builtins : (string * (Value.t list -> Value.t)) list;
  ts_extra_sigs : (string * Typecheck.func_sig) list;
  ts_harvester : Harvester.spec;
  ts_adaptive : string list;
      (* poll variables the seeds may stretch in degraded mode *)
}

let simple_spec ~name ~source =
  { ts_name = name; ts_source = source; ts_externals = []; ts_builtins = [];
    ts_extra_sigs = []; ts_harvester = Harvester.collector_spec;
    ts_adaptive = [] }

type task = Registry.task
type reg = Registry.reg

type t = {
  engine : Engine.t;
  fabric : Fabric.t;
  cfg : config;
  soils : Soil.t Int_map.t;  (* by node *)
  healing : Healing.t;
  registry : Registry.t;
  mutable next_msg : int;  (* seed-message ids: their retry jitter keys *)
  mutable assignments : Model.assignment list;
  mutable migration_count : int;
  collector_bytes : Metrics.Counter.t;
  mutable collector_messages : int;
  control : Control.t;
  (* every diagnostic (lint, conflicts) of the most recent deploy *)
  mutable last_diags : Diagnostic.t list;
  mutable fenced_sends : int;
  mutable pressured : Int_set.t;  (* soils currently under pressure *)
  mutable pressure_events : int;  (* pressure flag flips seen *)
  mutable storm_reports : int;  (* reports injected by Report_storm faults *)
}

let engine t = t.engine
let fabric t = t.fabric

let soil t node =
  match Int_map.find_opt node t.soils with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Seeder.soil: no soil on node %d" node)

let soils t = List.map snd (Int_map.bindings t.soils)

let control t = t.control
let healing t = t.healing
let retransmissions t = Control.retransmissions t.control
let lost_messages t = Control.lost_messages t.control

let harvester (task : task) =
  match task.harvester with
  | Some h -> h
  | None -> invalid_arg "Seeder.harvester: task has no harvester yet"

let is_placed (task : task) = task.placed

(* the live optimization instance: all registered seeds over all healthy
   soils; seeds lose failed switches from their candidate sets *)
let placement_instance t =
  let failed = Healing.is_failed t.healing in
  let pcie = Analysis.resource_index Analysis.Pcie in
  let switches =
    List.filter_map
      (fun soilv ->
        let node = Soil.node_id soilv in
        if failed node then None else
        let caps = Switch_model.caps (Soil.switch soilv) in
        let avail = Array.make Analysis.n_resources 0. in
        avail.(Analysis.resource_index Analysis.VCpu) <- caps.vcpu;
        avail.(Analysis.resource_index Analysis.Ram) <- caps.ram_mb;
        avail.(Analysis.resource_index Analysis.TcamR) <-
          float_of_int
            (Farm_net.Tcam.region_capacity
               (Switch_model.tcam (Soil.switch soilv))
               Farm_net.Tcam.Monitoring);
        (* polling budget in reads/s: PCIe bits/s over one counter read *)
        avail.(pcie) <- caps.pcie_bps /. (8. *. Soil.counter_record_bytes);
        Some { Model.node; avail })
      (soils t)
  in
  { Model.seeds = Registry.placement_seeds t.registry ~failed;
    switches; alpha_poll = 1.; previous = t.assignments }

let current_utility t =
  Model.total_utility (placement_instance t) t.assignments

let current_assignments t = t.assignments

let collector_bytes t = Metrics.Counter.value t.collector_bytes
let collector_messages t = t.collector_messages
let migrations t = t.migration_count

(* rough wire size of a value *)
let rec value_bytes (v : Value.t) =
  match v with
  | Value.Unit | Value.Bool _ -> 1.
  | Value.Num _ -> 8.
  | Value.Str s -> float_of_int (String.length s)
  | Value.List l -> List.fold_left (fun a v -> a +. value_bytes v) 8. l
  | Value.Nums a -> 8. +. (8. *. float_of_int (Float.Array.length a))
  | Value.Packet _ -> 64.
  | Value.Action _ -> 8.
  | Value.FilterV _ -> 32.
  | Value.Stats a -> 8. *. float_of_int (Array.length a)
  | Value.Struct (_, fs) ->
      List.fold_left (fun a (_, v) -> a +. value_bytes v) 16. fs

let seed_specs _t (task : task) =
  List.map (fun (r : reg) -> r.r_spec) task.regs

let seeds _t (task : task) =
  List.filter_map (fun (r : reg) -> r.r_exec) task.regs

let seed_on _t (task : task) ~machine ~node =
  List.find_opt
    (fun (r : reg) ->
      r.r_machine = machine
      && match r.r_exec with
         | Some e -> Seed_exec.node e = node
         | None -> false)
    task.regs
  |> fun r -> Option.bind r (fun r -> r.r_exec)

(* ------------------------------------------------------------------ *)
(* Message routing                                                     *)
(* ------------------------------------------------------------------ *)

(* Deliver to one registered seed; retried while the seed is away
   (migrating, or waiting to be re-placed after a switch failure).  Every
   copy goes to the seed's instance of the moment, and all copies share
   one receipt, so the receiving instance drops the retransmitted /
   ctrl-duplicated copies it has already taken (idempotent receipt).  The
   message's id keys its retries' jitter. *)
let send_to_reg t (r : reg) ~from v =
  let key = t.next_msg in
  t.next_msg <- t.next_msg + 1;
  let receipt = Seed_exec.receipt () in
  let dest = Option.map Seed_exec.node r.r_exec in
  Control.send t.control ?dest ~key (fun () ->
      match r.r_exec with
      | Some e ->
          Seed_exec.deliver ~receipt e ~from v;
          `Delivered
      | None ->
          if Registry.mem t.registry r.r_spec.seed_id then `Absent else `Gone)

(* to every running seed of [task] that [pick] selects, in seed-id order *)
let send_to_seeds t (task : task) pick ~from v =
  List.iter
    (fun (r : reg) ->
      match r.r_exec with
      | Some e when pick r e -> send_to_reg t r ~from v
      | Some _ | None -> ())
    task.regs

let seed_send t (task : task) exec (target : Host.target) v =
  match target with
  | Host.To_harvester ->
      (* stamp provenance: the harvester fences stale epochs and dedups
         (epoch, seq) so zombies and duplicated deliveries are harmless *)
      let prov =
        { Harvester.p_seed = Seed_exec.seed_id exec;
          p_epoch = Seed_exec.epoch exec;
          p_seq = Seed_exec.alloc_seq exec }
      in
      let from_switch = Seed_exec.node exec in
      Metrics.Counter.add t.collector_bytes
        (value_bytes v +. message_overhead_bytes);
      t.collector_messages <- t.collector_messages + 1;
      (* a report travels its switch's channel.  Its jitter key counts
         down from the top of the key range, seed messages' ids count up
         from 0: the two meet only after 2^59 messages. *)
      Control.send t.control ~dest:from_switch
        ~key:(Control.max_key - t.collector_messages) (fun () ->
          match task.harvester with
          | Some h ->
              Harvester.handle ~provenance:prov h ~from_switch v;
              `Delivered
          | None -> `Gone)
  | Host.To_machine (m, node) ->
      (* seed→seed messages route through the seeder, which drops traffic
         from instances it has already superseded (fencing at the router) *)
      let live =
        match Registry.find t.registry (Seed_exec.seed_id exec) with
        | Some r -> Seed_exec.epoch exec = r.r_epoch
        | None -> false
      in
      if live then
        send_to_seeds t task
          (fun (r : reg) e ->
            r.r_machine = m
            && Option.fold ~none:true ~some:(( = ) (Seed_exec.node e)) node)
          ~from:(Host.From_machine (Seed_exec.machine_name exec)) v
      else t.fenced_sends <- t.fenced_sends + 1

(* ------------------------------------------------------------------ *)
(* Placement application                                               *)
(* ------------------------------------------------------------------ *)

let retire_exec (r : reg) =
  (match r.r_exec with
  | Some exec ->
      Seed_exec.destroy exec;
      r.r_exec <- None
  | None -> ());
  Healing.stop_checkpoints r.r_ck

let instantiate t (r : reg) (a : Model.assignment) ~restore =
  (* ground truth beats belief: a push to a switch whose management plane
     is down is a lost control message — the seeder still thinks the seed
     is placed, the failure detector eventually tells it otherwise.  (The
     race is real: a pre-crash in-flight heartbeat can trigger a re-push
     to a switch that just died.) *)
  if Healing.is_down t.healing a.a_node then ()
  else begin
  let soilv = soil t a.a_node in
  (* the switch runs the task as decompiled from its XML, exactly as the
     soil does in the paper's implementation; decoding and compiling cost
     no simulated time, so they happen once per task machine *)
  let plan = Lazy.force r.r_plan in
  (* every (re)instantiation is a new epoch: harvesters fence on it, so a
     zombie of the previous instance can never outvote this one *)
  r.r_epoch <- r.r_epoch + 1;
  let restore =
    match restore with
    | Some _ -> restore  (* live migration snapshot *)
    | None ->
        (* crash recovery: last checkpoint *)
        Option.map
          (fun (_, vars, state) -> (vars, state))
          (Healing.last_checkpoint r.r_ck)
  in
  let exec =
    Seed_exec.deploy ~soil:soilv ~plan ~externals:r.r_externals
      ~builtins:r.r_task.builtins ?restore ~epoch:r.r_epoch
      ~adaptive:r.r_task.adaptive ~resources:a.a_res ~polls:r.r_polls
      ~send:(fun exec target v -> seed_send t r.r_task exec target v)
      ~seed_id:r.r_spec.seed_id ()
  in
  r.r_exec <- Some exec;
  let ev = Control.trace_instant t.engine n_instantiate in
  Control.trace_i ev k_seed r.r_spec.seed_id;
  Control.trace_i ev k_node a.a_node;
  Control.trace_i ev k_epoch r.r_epoch;
  (match r.r_task.harvester with
  | Some h -> Harvester.fence h ~seed_id:r.r_spec.seed_id ~epoch:r.r_epoch
  | None -> ());
  Healing.start_checkpoints t.healing r.r_ck exec ~epoch:(fun () -> r.r_epoch)
  end

let apply_placement t (placement : Model.placement) =
  let new_assignments = placement.assignments in
  let by_seed = Hashtbl.create 64 in
  List.iter
    (fun (a : Model.assignment) -> Hashtbl.replace by_seed a.a_seed a)
    new_assignments;
  (* destroy / migrate / retune existing seeds, in seed-id order so
     same-time engine events are enqueued deterministically *)
  Registry.iter_seeds t.registry (fun r ->
      let seed_id = r.r_spec.seed_id in
      match (r.r_exec, Hashtbl.find_opt by_seed seed_id) with
      | Some _, None ->
          (* dropped from the placement *)
          retire_exec r
      | Some exec, Some a when Seed_exec.node exec <> a.a_node ->
          (* migrate: snapshot, transfer state, resume at the target *)
          let snapshot = Seed_exec.snapshot exec in
          let ev = Control.trace_span t.engine n_migrate ~dur:migration_time in
          Control.trace_i ev k_seed seed_id;
          Control.trace_i ev k_from (Seed_exec.node exec);
          Control.trace_i ev k_to a.a_node;
          retire_exec r;
          r.r_migrating <- true;
          t.migration_count <- t.migration_count + 1;
          Engine.schedule t.engine ~delay:migration_time (fun _ ->
              r.r_migrating <- false;
              (* the fabric may have changed while the state was in
                 flight: land on the seed's *current* assignment, and only
                 if that switch is still up — otherwise the shipped
                 checkpoint is the surviving copy and the healing layer
                 re-places the seed *)
              let a' =
                List.find_opt
                  (fun (a' : Model.assignment) -> a'.a_seed = seed_id)
                  t.assignments
              in
              match (r.r_exec, a') with
              | None, Some a'
                when (not (Healing.is_failed t.healing a'.a_node))
                     && not (Healing.is_down t.healing a'.a_node) ->
                  instantiate t r a' ~restore:(Some snapshot)
              | _ -> ())
      | Some exec, Some a ->
          if Seed_exec.resources exec <> a.a_res then
            Seed_exec.set_resources exec a.a_res
      | None, Some a when not r.r_migrating ->
          instantiate t r a ~restore:None
      | None, _ -> ());
  t.assignments <- new_assignments;
  (* task placement flags *)
  List.iter
    (fun (task : task) ->
      task.placed <-
        List.exists
          (fun (r : reg) -> Hashtbl.mem by_seed r.r_spec.seed_id)
          task.regs)
    (Registry.tasks t.registry)

let reoptimize t =
  let inst = placement_instance t in
  let placement, _stats = Heuristic.optimize inst in
  apply_placement t placement

(* ------------------------------------------------------------------ *)
(* Reactions to the healing layer's detector                           *)
(* ------------------------------------------------------------------ *)

(* [node] was declared failed: its instances become zombies and only its
   orphaned seeds are re-placed; everything else stays pinned
   ([optimize_incremental] falls back to a full optimize if pinning would
   drop a task).  Returns how many orphans run again. *)
let fail_over t node =
  Registry.iter_on t.registry node (fun r exec ->
      r.r_exec <- None;
      Healing.demote t.healing r.r_ck exec);
  let orphans =
    List.filter_map
      (fun (a : Model.assignment) ->
        if a.a_node = node then Some a.a_seed else None)
      t.assignments
    |> List.sort Int.compare
  in
  t.assignments <-
    List.filter (fun (a : Model.assignment) -> a.a_node <> node) t.assignments;
  let placement, _stats =
    Heuristic.optimize_incremental (placement_instance t) ~affected:orphans
  in
  apply_placement t placement;
  List.length
    (List.filter
       (fun seed_id ->
         match Registry.find t.registry seed_id with
         | Some r -> r.r_exec <> None
         | None -> false)
       orphans)

(* Re-push every seed assigned to [node] whose instance died with a crash
   the detector never saw.  Returns how many run again: the re-push is
   itself lost if the switch died again in the meantime. *)
let rejoin_orphans t node =
  List.fold_left
    (fun n (a : Model.assignment) ->
      if a.a_node <> node then n
      else
        match Registry.find t.registry a.a_seed with
        | Some r when r.r_exec = None && not r.r_migrating ->
            instantiate t r a ~restore:None;
            if r.r_exec <> None then n + 1 else n
        | _ -> n)
    0 t.assignments

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let create ?(config = default_config) engine fabric =
  let soils =
    List.fold_left
      (fun soils sw ->
        Int_map.add (Switch_model.id sw)
          (Soil.create ~config:config.soil_config engine sw)
          soils)
      Int_map.empty (Fabric.switch_models fabric)
  in
  let reg = Engine.metrics engine in
  let control = Control.create engine config.ctrl_protection in
  let detector =
    if config.auto_heal then
      Healing.heartbeat ~interval:config.heartbeat_interval
        ~timeout:config.detection_timeout
        ~checkpoint_interval:config.checkpoint_interval
    else Healing.oracle
  in
  let rec t =
    lazy
      { engine; fabric; cfg = config; soils;
        healing =
          Healing.create engine control detector
            ~full_every:config.checkpoint_full_every
            ~fail_over:(fun node -> fail_over (Lazy.force t) node)
            ~reoptimize:(fun () -> reoptimize (Lazy.force t))
            ~repush:(fun node -> rejoin_orphans (Lazy.force t) node);
        registry = Registry.create (); next_msg = 0; assignments = [];
        migration_count = 0;
        collector_bytes =
          Metrics.Registry.counter reg "seeder.collector.bytes";
        collector_messages = 0; control; last_diags = [];
        fenced_sends = 0; pressured = Int_set.empty; pressure_events = 0;
        storm_reports = 0 }
  in
  let t = Lazy.force t in
  (* soils report their pressure flips up (none at unlimited limits) *)
  let on_pressure ~node ~high =
    if high <> Int_set.mem node t.pressured then begin
      t.pressured <-
        (if high then Int_set.add else Int_set.remove) node t.pressured;
      t.pressure_events <- t.pressure_events + 1
    end
  in
  Int_map.iter (fun _ s -> Soil.set_pressure_listener s on_pressure) soils;
  (* publish the plain mutable counters as callback gauges, sampled at
     snapshot time — no extra work on the hot paths that bump them *)
  let g name f = Metrics.Registry.gauge_fn reg name (fun () -> float_of_int (f ())) in
  g "seeder.sends.fenced" (fun () -> t.fenced_sends);
  g "seeder.migrations" (fun () -> t.migration_count);
  g "seeder.collector.messages" (fun () -> t.collector_messages);
  (* an unlimited channel never limits anything and publishes no
     protection metrics *)
  if config.ctrl_protection <> Control.unlimited then begin
    g "seeder.pressure.switches" (fun () -> Int_set.cardinal t.pressured);
    g "seeder.pressure.events" (fun () -> t.pressure_events)
  end;
  Healing.start t.healing ~nodes:(List.map fst (Int_map.bindings soils));
  t

(* ------------------------------------------------------------------ *)
(* Deploy                                                              *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

let last_deploy_diagnostics t = Diagnostic.sort t.last_diags

let deploy t spec =
  t.last_diags <- [];
  let record ds = t.last_diags <- t.last_diags @ ds in
  let* program =
    match Frontend.load ~extra:spec.ts_extra_sigs spec.ts_source with
    | Ok p -> Ok p
    | Error ds ->
        record ds;
        let d = List.hd ds in
        Error
          (if d.Diagnostic.code.[0] = 'P' then
             "syntax error: " ^ Diagnostic.to_string d
           else d.Diagnostic.message)
  in
  (* deploy-time verification: lint the resolved program, refusing on
     error-severity diagnostics; warnings are recorded and deployment
     proceeds.  The optional symbolic verifier's reachability results
     upgrade the lint verdicts. *)
  let verify_diags, reach =
    if t.cfg.verify_on_deploy then
      Frontend.verify ~host_builtins:(List.map fst spec.ts_builtins) program
    else ([], [])
  in
  let static_diags =
    Diagnostic.sort
      (verify_diags
      @ Frontend.lint_program ~externals:spec.ts_externals ~reach program)
  in
  record static_diags;
  let* () =
    if Diagnostic.has_errors static_diags then
      let d = List.find Diagnostic.is_error static_diags in
      let pass = if d.Diagnostic.code.[0] = 'V' then "verify" else "lint" in
      Error (pass ^ ": " ^ Diagnostic.to_string d)
    else Ok ()
  in
  (* every machine's analysis, or the first machine's error *)
  let* analyzed =
    List.fold_right
      (fun r acc ->
        let* a = r in
        Result.map (List.cons a) acc)
      (Frontend.analyze ~topo:(Fabric.topology t.fabric)
         ~externals:spec.ts_externals program)
      (Ok [])
  in
  (* cross-task conflicts against already-deployed tasks, newest first *)
  let profile = Conflict.profile ~task:spec.ts_name analyzed in
  let conflicts =
    Conflict.check_against profile
      (List.rev_map
         (fun (d : task) -> d.profile)
         (Registry.tasks t.registry))
  in
  record conflicts;
  let* () =
    if conflicts <> [] && t.cfg.refuse_conflicts then
      Error ("conflict: " ^ Diagnostic.to_string (List.hd conflicts))
    else Ok ()
  in
  let task =
    { Registry.task_id = Registry.fresh_task_id t.registry;
      name = spec.ts_name; builtins = spec.ts_builtins;
      adaptive = spec.ts_adaptive; profile; harvester = None;
      placed = false; regs = [] }
  in
  (* what a switch runs: the program compiled to the interchange XML
     shipped to switches (§V-A d) and decompiled, once per task; the plan
     of each of its machines is prepared from this immutable AST *)
  let shipped = lazy Farm_almanac.Machine_xml.(load (compile program)) in
  (* each machine's seeds, numbered in program order *)
  let regs =
    List.concat_map
      (fun ((summary : Analysis.summary), _) ->
        let r_machine = summary.machine.mname in
        let r_externals =
          Option.value
            (List.assoc_opt r_machine spec.ts_externals)
            ~default:[]
        in
        let branches =
          match summary.state_utils with
          | (_, u) :: _ -> u
          | [] -> Analysis.default_utility
        in
        let polls =
          List.concat_map
            (fun (p : Analysis.poll_summary) ->
              match p.ptrig with
              | Ast.Poll ->
                  List.map
                    (fun subject -> { Model.subject; ival = p.ival })
                    p.subjects
              | Ast.Probe | Ast.Time -> [])
            summary.poll_vars
        in
        let r_plan =
          lazy
            (Farm_almanac.Engine.prepare ~engine:t.cfg.engine
               ~program:(Lazy.force shipped) ~machine:r_machine)
        in
        List.map
          (fun (site : Analysis.seed_site) ->
            let seed_id = Registry.fresh_seed_id t.registry in
            { Registry.r_spec =
                { Model.seed_id; task_id = task.task_id;
                  candidates = site.candidates; branches; polls };
              r_task = task; r_machine; r_plan; r_polls = summary.poll_vars;
              r_externals; r_exec = None; r_migrating = false; r_epoch = -1;
              r_ck = Healing.ck () })
          summary.seeds)
      analyzed
  in
  match regs with
  | [] -> Error "task has no seeds to place"
  | regs ->
      Registry.register t.registry task regs;
      (* harvester wiring *)
      let ctx =
        { Harvester.send_to_seed =
            (fun ~switch ->
              send_to_seeds t task
                (fun _ e -> Seed_exec.node e = switch)
                ~from:Host.From_harvester);
          broadcast =
            send_to_seeds t task (fun _ _ -> true) ~from:Host.From_harvester;
          now = (fun () -> Engine.now t.engine);
          log = (fun _ -> ()) }
      in
      let h = Harvester.create spec.ts_harvester ctx in
      Harvester.set_tracer h (fun () -> Engine.tracer t.engine);
      Harvester.set_overload h t.cfg.harvester_overload;
      task.harvester <- Some h;
      reoptimize t;
      if not task.placed then begin
        Registry.unregister t.registry task;
        Error
          (Printf.sprintf "task %s cannot be placed with available resources"
             spec.ts_name)
      end
      else begin
        (* gauges only for a placed task: they outlive it in the metrics
           registry *)
        Harvester.metrics_register h (Engine.metrics t.engine)
          ~prefix:(Printf.sprintf "harvester.task%d." task.task_id);
        Harvester.start h;
        Ok task
      end

(* ------------------------------------------------------------------ *)
(* Failures: silent crashes and the detectors that find them           *)
(* ------------------------------------------------------------------ *)

(* Ground-truth crash: the switch's management plane dies silently and
   every instance on it stops.  The control plane learns of it from the
   healing layer's detector. *)
let crash_switch t node =
  if Int_map.mem node t.soils && not (Healing.is_down t.healing node) then begin
    Registry.iter_on t.registry node (fun r _ -> retire_exec r);
    Healing.crash t.healing node
  end

let revive_switch t node = Healing.revive t.healing node

let undeploy t (task : task) =
  List.iter retire_exec task.regs;
  Registry.unregister t.registry task;
  t.assignments <-
    List.filter
      (fun (a : Model.assignment) -> Registry.mem t.registry a.a_seed)
      t.assignments;
  task.placed <- false

(* ------------------------------------------------------------------ *)
(* Self-healing introspection                                          *)
(* ------------------------------------------------------------------ *)

(* registered seeds that hold an assignment but have no running instance
   and are not mid-migration — transiently non-empty between a crash and
   its detection; must drain to [] once healing settles *)
let orphaned_seeds t =
  List.filter_map
    (fun (a : Model.assignment) ->
      match Registry.find t.registry a.a_seed with
      | Some r when r.r_exec = None && not r.r_migrating -> Some a.a_seed
      | _ -> None)
    t.assignments
  |> List.sort Int.compare

let last_checkpoint t seed_id =
  Option.bind (Registry.find t.registry seed_id) (fun r ->
      Healing.last_checkpoint r.r_ck)

let seed_epoch t seed_id =
  match Registry.find t.registry seed_id with
  | Some r -> Some r.r_epoch
  | None -> None

let recovery_time t = Healing.recovery_time t.healing
let heartbeats_sent t = Healing.heartbeats_sent t.healing
let checkpoints_shipped t = Healing.checkpoints_shipped t.healing
let checkpoint_bytes t = Healing.checkpoint_bytes t.healing
let detections t = Healing.detections t.healing
let false_detections t = Healing.false_detections t.healing

(* ------------------------------------------------------------------ *)
(* Overload resilience: introspection and fault hooks                  *)
(* ------------------------------------------------------------------ *)

let pressure_events t = t.pressure_events

(* Fault.Report_storm: every seed instance on [node] blasts [reports]
   junk reports at its harvester through the regular provenance-stamped
   path, so fencing, dedup and the bounded inbox all see them as ordinary
   (if antisocial) traffic. *)
let inject_report_storm t ~node ~reports =
  let ev = Control.trace_instant t.engine n_report_storm in
  Control.trace_i ev k_node node;
  Control.trace_i ev k_reports reports;
  Registry.iter_on t.registry node (fun r exec ->
      for i = 0 to reports - 1 do
        t.storm_reports <- t.storm_reports + 1;
        seed_send t r.r_task exec Host.To_harvester
          (Value.Struct ("Storm", [ ("i", Value.Num (float_of_int i)) ]))
      done)

(* ------------------------------------------------------------------ *)
(* Canonical digest                                                    *)
(* ------------------------------------------------------------------ *)

(* One line per component, floats as [%h] and machine state in the
   checkpoint wire form, so equal texts mean bit-identical worlds.  The
   registry snapshot goes last: it already carries the soil poll
   counters, the seeder's control/healing counters and histograms, and
   every harvester's accounting. *)
let digest t =
  let b = Buffer.create 4096 in
  let ints l = String.concat "," (List.map string_of_int l) in
  Printf.bprintf b "engine dispatched=%d now=%h\n"
    (Engine.dispatched t.engine) (Engine.now t.engine);
  Printf.bprintf b "utility=%h failed=[%s] down=[%s]\n" (current_utility t)
    (ints (Healing.failed_switches t.healing))
    (ints (Healing.down_switches t.healing));
  Printf.bprintf b "fabric flows=%d rerouted=%d dropped=%d\n"
    (Fabric.active_flow_count t.fabric)
    (Fabric.rerouted_flows t.fabric)
    (Fabric.dropped_flows t.fabric);
  Printf.bprintf b
    "overload ratelim=%d brkdrop=%d retrycap=%d opens=%d storm=%d \
     press=%d@[%s] zombies=%d\n"
    (Control.rate_limited t.control) (Control.breaker_dropped t.control)
    (Control.retry_capped t.control) (Control.breaker_opens t.control)
    t.storm_reports t.pressure_events
    (ints (Int_set.elements t.pressured))
    (Healing.zombie_count t.healing);
  Control.digest t.control b;
  Registry.digest b t.registry;
  List.iter
    (fun soilv ->
      Printf.bprintf b "soil %d pcie_factor=%h" (Soil.node_id soilv)
        (Soil.pcie_factor soilv);
      (match Soil.overload_stats soilv with
      | None -> ()
      | Some st ->
          Printf.bprintf b " offered=%d completed=%d shed=%d pending=%d peak=%d"
            st.Soil.o_offered st.Soil.o_completed st.Soil.o_shed
            st.Soil.o_pending st.Soil.o_queue_peak);
      Buffer.add_char b '\n')
    (soils t);
  Buffer.add_string b (Metrics.Registry.to_json (Engine.metrics t.engine));
  Buffer.contents b
