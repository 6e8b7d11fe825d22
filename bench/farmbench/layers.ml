(* The layer phase: every public function named in [Manifest.timed_layers]
   timed from outside, on inputs captured from the workloads (catalog
   programs, counter arrays polled in hh-poll, packets sampled in
   probe-mix, placement instances of live seeders, a heal-storm seed's
   checkpoint).  Each layer runs for [min_time] seconds after warm-up in
   batches; ns/op and bytes/op are the median and quartiles over
   batches. *)

open Farm
module A = Almanac
module Engine = Sim.Engine
module Rng = Sim.Rng
module Seeder = Runtime.Seeder
module W = Workloads

type result = { time : Stats.summary; bytes : Stats.summary }

let time_scale = function
  | "ns" -> 1.
  | "us" -> 1e-3
  | "ms" -> 1e-6
  | u -> invalid_arg u

(* Time [f], which returns how many units of work it did (the op count of
   the metric's "per" noun), in batches of about [min_time / 20]. *)
let bench ~min_time (t : Manifest.timed) f =
  let name = Manifest.time_name t in
  Spans.with_span ~cat:"layer" name (fun () ->
      let warm0 = Spans.now_ns () and calls = ref 0 in
      while !calls < 3 || Spans.seconds_since warm0 < min_time /. 10. do
        ignore (f () : int);
        incr calls
      done;
      let per_call = Spans.seconds_since warm0 /. float_of_int !calls in
      let k = max 1 (truncate (min_time /. 20. /. per_call)) in
      let ns = ref [] and bytes = ref [] in
      let start = Spans.now_ns () in
      let timer = Calib.start () in
      while List.length !ns < 3 || Spans.seconds_since start < min_time do
        Spans.with_span ~cat:"layer" (name ^ ".batch") (fun () ->
            let a0 = Measure.allocated_bytes () and before = timer.reference in
            let units = ref 0 in
            for _ = 1 to k do
              units := !units + f ()
            done;
            let da = Measure.allocated_bytes () -. a0 in
            Calib.lap timer;
            let dt = 1e9 *. (timer.reference -. before) in
            let u = float_of_int (max 1 !units) in
            ns := (dt /. u *. time_scale t.time_unit) :: !ns;
            bytes := (da /. u) :: !bytes)
      done;
      { time = Stats.summarize !ns; bytes = Stats.summarize !bytes })

let once f = fun () -> f (); 1

(* ------------------------------------------------------------------ *)
(* Captured inputs                                                     *)
(* ------------------------------------------------------------------ *)

let catalog = Tasks.Catalog.all

let typed (e : Tasks.Task_common.entry) =
  A.Typecheck.check ~extra:e.extra_sigs (A.Parser.program e.source)

(* Deploy-time bindings: deployment externals first, then initializers. *)
let bindings (e : Tasks.Task_common.entry) (m : A.Ast.machine) name =
  let externals = Option.value (List.assoc_opt m.mname e.externals) ~default:[] in
  match List.assoc_opt name externals with
  | Some v -> Some v
  | None ->
      List.find_map
        (fun (v : A.Ast.var_decl) ->
          if v.vname <> name then None
          else
            match v.vinit with
            | Some (A.Ast.Int i) -> Some (A.Value.Num (float_of_int i))
            | Some (A.Ast.Float f) -> Some (A.Value.Num f)
            | Some (A.Ast.String s) -> Some (A.Value.Str s)
            | Some (A.Ast.Bool b) -> Some (A.Value.Bool b)
            | _ -> None)
        m.mvars

(* A host that binds the task's builtins and accepts TCAM calls, so
   handlers run the Almanac engine alone. *)
let host (e : Tasks.Task_common.entry) =
  { A.Host.null_host with
    h_builtin =
      (fun name ->
        match name with
        | "addTCAMRule" | "removeTCAMRule" -> Some (fun _ -> A.Value.Unit)
        | _ -> List.assoc_opt name e.builtins) }

let externals (e : Tasks.Task_common.entry) machine =
  Option.value (List.assoc_opt machine e.externals) ~default:[]

let world_of (wl : W.t) ~until =
  let wd = wl.setup ~seed:1 W.Full None in
  W.advance wd ~until;
  wd

(* 50 consecutive 1 ms polls of all port counters on the busiest switch
   of an hh-poll world while an elephant is running. *)
let hh_stats () =
  let wd = world_of W.hh_poll ~until:1.1 in
  let sw =
    List.fold_left
      (fun best sw ->
        if Net.Switch_model.total_rate sw > Net.Switch_model.total_rate best
        then sw else best)
      (List.hd (Net.Fabric.switch_models wd.W.w.World.fabric))
      (Net.Fabric.switch_models wd.W.w.World.fabric)
  in
  ( sw,
    Array.init 50 (fun i ->
        A.Value.Stats
          (Net.Switch_model.poll_subject sw
             ~time:(1.1 +. (1e-3 *. float_of_int i))
             Net.Filter.All_ports)) )

(* Packets sampled from every switch of a probe-mix world mid-episode. *)
let probe_packets () =
  let wd = world_of W.probe_mix ~until:2. in
  let rng = Rng.create 7 in
  let sws = Net.Fabric.switch_models wd.W.w.World.fabric in
  let busiest =
    List.fold_left
      (fun best sw ->
        if List.length (Net.Switch_model.active_flows sw)
           > List.length (Net.Switch_model.active_flows best)
        then sw else best)
      (List.hd sws) sws
  in
  let pkts =
    List.concat_map
      (fun sw ->
        List.filter_map (fun _ -> Net.Switch_model.sample_packet sw rng)
          (List.init 25 Fun.id))
      sws
  in
  (busiest, Array.of_list (List.map (fun p -> A.Value.Packet p) pkts))

let deployed_world ~spines ~leaves ~tasks =
  let w = World.create ~seed:1 ~spines ~leaves ~hosts_per_leaf:1 () in
  List.iter
    (fun name ->
      match World.deploy_catalog_task w name with
      | Ok _ -> ()
      | Error m -> failwith (Printf.sprintf "layers: deploy %s: %s" name m))
    tasks;
  w

(* A live set like deploy-churn's: the resident heavy-hitter and the first
   six tasks of the catalog cycle that the curve's largest fabric can place
   (its spines have the most ports to poll), so every size holds the same
   tasks. *)
let live_set () =
  let spines, leaves = List.assoc "sw96" Manifest.size_curve in
  let w = World.create ~seed:1 ~spines ~leaves ~hosts_per_leaf:1 () in
  let placed name = Result.is_ok (World.deploy_catalog_task w name) in
  ignore (placed "heavy-hitter");
  let rec pick acc = function
    | n :: rest when List.length acc < 6 ->
        pick (if placed n then n :: acc else acc) rest
    | _ -> List.rev acc
  in
  "heavy-hitter"
  :: pick [] (List.filter (( <> ) "heavy-hitter") Tasks.Catalog.names)

(* ------------------------------------------------------------------ *)
(* The layers                                                          *)
(* ------------------------------------------------------------------ *)

let find_layer name =
  List.find (fun t -> Manifest.time_name t = name) Manifest.timed_layers

let run ~min_time =
  let out = ref [] in
  let time name f =
    let t = find_layer name in
    let r = bench ~min_time t f in
    out := (t, r) :: !out
  in
  let topo96 =
    let s, l = List.assoc "sw96" Manifest.size_curve in
    Net.Topology.spine_leaf ~spines:s ~leaves:l ~hosts_per_leaf:1
  in
  (* almanac front end over the whole catalog *)
  let parse (e : Tasks.Task_common.entry) = A.Parser.program e.source in
  let parsed = List.map parse catalog in
  let programs = List.map typed catalog in
  let machines =
    List.concat_map
      (fun ((e : Tasks.Task_common.entry), (p : A.Ast.program)) ->
        List.map (fun m -> (e, p, m)) p.machines)
      (List.combine catalog programs)
  in
  time "almanac.parser.us_per_catalog"
    (once (fun () ->
         List.iter (fun e -> ignore (parse e)) catalog));
  time "almanac.typecheck.us_per_catalog"
    (once (fun () ->
         List.iter2
           (fun (e : Tasks.Task_common.entry) p ->
             ignore (A.Typecheck.check ~extra:e.extra_sigs p))
           catalog parsed));
  time "almanac.lint.us_per_catalog"
    (once (fun () ->
         List.iter2
           (fun (e : Tasks.Task_common.entry) p ->
             let externals =
               List.map (fun (m, vs) -> (m, List.map fst vs)) e.externals
             in
             ignore (A.Lint.check_program ~externals p))
           catalog programs));
  time "almanac.analysis.us_per_catalog"
    (once (fun () ->
         List.iter
           (fun (e, _, m) ->
             ignore (A.Analysis.summarize ~bindings:(bindings e m) ~topo:topo96 m))
           machines));
  time "almanac.compile.us_per_catalog"
    (once (fun () ->
         List.iter
           (fun (_, program, (m : A.Ast.machine)) ->
             ignore (A.Compile.compile ~program ~machine:m.mname))
           machines));
  let xml_i = ref 0 and progs = Array.of_list programs in
  time "almanac.machine_xml.us_per_roundtrip"
    (once (fun () ->
         let p = progs.(!xml_i mod Array.length progs) in
         incr xml_i;
         ignore (A.Machine_xml.load (A.Machine_xml.compile p))));
  (* Almanac engines on the hh-poll and probe-mix hot paths *)
  let hh_sw, stats = hh_stats () in
  let hh = Tasks.Catalog.find "heavy-hitter" in
  let hh_program = typed hh in
  let poll_fire create prepare start =
    let inst = create () in
    start inst;
    let fire = prepare inst "pollStats" and i = ref 0 in
    once (fun () ->
        fire stats.(!i mod Array.length stats);
        incr i)
  in
  time "almanac.exec.ns_per_poll_activation"
    (poll_fire
       (fun () ->
         A.Exec.create ~externals:(externals hh "HH") ~program:hh_program
           ~machine:"HH" (host hh))
       A.Exec.prepare_trigger A.Exec.start);
  time "almanac.interp.ns_per_poll_activation"
    (poll_fire
       (fun () ->
         A.Interp.create ~externals:(externals hh "HH") ~program:hh_program
           ~machine:"HH" (host hh))
       A.Interp.prepare_trigger A.Interp.start);
  let probe_sw, packets = probe_packets () in
  let probers =
    Array.of_list
      (List.map
         (fun name ->
           let e = Tasks.Catalog.find name in
           let program = typed e in
           let m = List.hd program.machines in
           let x =
             A.Exec.create ~externals:(externals e m.mname) ~program
               ~machine:m.mname (host e)
           in
           A.Exec.start x;
           let polls =
             match A.Analysis.polls ~bindings:(bindings e m) m with
             | Ok ps -> ps
             | Error msg -> failwith msg
           in
           let fire kind =
             List.filter_map
               (fun (p : A.Analysis.poll_summary) ->
                 if p.ptrig = kind then Some (A.Exec.prepare_trigger x p.poll_name)
                 else None)
               polls
           in
           (fire A.Ast.Probe, fire A.Ast.Time))
         W.probe_detectors)
  in
  let pi = ref 0 in
  time "almanac.exec.ns_per_probe_activation"
    (fun () ->
      let probes, windows = probers.(!pi mod Array.length probers) in
      let pkt = packets.(!pi / Array.length probers mod Array.length packets) in
      incr pi;
      List.iter (fun fire -> fire pkt) probes;
      (* close the detector's window once per pass over the packets *)
      if !pi mod Array.length packets = 0 then
        List.iter (fun fire -> fire (A.Value.Num 0.)) windows;
      List.length probes);
  (* placement: the size curve on deploy-churn's live set, and healing's
     incremental pass on a heal-storm seeder with one switch gone *)
  let tasks = live_set () in
  List.iter
    (fun (label, (spines, leaves)) ->
      let w = deployed_world ~spines ~leaves ~tasks in
      let inst = Seeder.placement_instance w.World.seeder in
      time
        ("placement.heuristic.ms_per_optimize." ^ label)
        (once (fun () -> ignore (Placement.Heuristic.optimize inst))))
    Manifest.size_curve;
  (let wd = world_of W.heal_storm ~until:0.4 in
   let inst = Seeder.placement_instance (W.seeder wd) in
   let roam = List.assoc "roam0" wd.W.live in
   let node = Runtime.Seed_exec.node (List.hd (Seeder.seeds (W.seeder wd) roam)) in
   let on_node (a : Placement.Model.assignment) = a.a_node = node in
   let affected =
     List.filter_map
       (fun (a : Placement.Model.assignment) ->
         if on_node a then Some a.a_seed else None)
       inst.previous
   in
   let failed =
     { inst with
       switches =
         List.filter
           (fun (c : Placement.Model.switch_caps) -> c.node <> node)
           inst.switches;
       seeds =
         List.filter_map
           (fun (s : Placement.Model.seed_spec) ->
             match List.filter (fun n -> n <> node) s.candidates with
             | [] -> None
             | candidates -> Some { s with candidates })
           inst.seeds;
       previous = List.filter (fun a -> not (on_node a)) inst.previous }
   in
   time "placement.heuristic.ms_per_incremental.sw20"
     (once (fun () ->
          ignore (Placement.Heuristic.optimize_incremental failed ~affected))));
  let profiles =
    Array.of_list
      (List.map
         (fun ((e : Tasks.Task_common.entry), (p : A.Ast.program)) ->
           Placement.Conflict.profile ~task:e.name
             (List.map
                (fun m ->
                  let bindings = bindings e m in
                  match A.Analysis.summarize ~bindings ~topo:topo96 m with
                  | Ok s -> (s, bindings)
                  | Error msg -> failwith msg)
                p.machines))
         (List.combine catalog programs))
  in
  let ci = ref 0 in
  time "placement.conflict.ms_per_check"
    (once (fun () ->
         let n = Array.length profiles in
         let k = !ci mod n in
         incr ci;
         ignore
           (Placement.Conflict.check_against profiles.(k)
              (List.init 6 (fun j -> profiles.((k + n - 1 - j) mod n))))));
  (* net: flow churn along the size curve, the switch model's two reads *)
  List.iter
    (fun (label, (spines, leaves)) ->
      let fabric =
        Net.Fabric.create (Net.Topology.spine_leaf ~spines ~leaves ~hosts_per_leaf:1)
      in
      let rng = Rng.create 11 in
      let tuple () =
        { Net.Flow.src = Net.Fabric.random_host_addr fabric rng;
          dst = Net.Fabric.random_host_addr fabric rng;
          sport = 1024 + Rng.int rng 60_000; dport = 80; proto = Net.Flow.Tcp }
      in
      for _ = 1 to 40 do
        ignore (Net.Fabric.start_flow fabric ~time:0. ~tuple:(tuple ()) ~rate:2e4 ())
      done;
      let tuples = Array.init 256 (fun _ -> tuple ()) in
      let clock = ref 0. and fi = ref 0 in
      time
        ("net.fabric.us_per_flow_churn." ^ label)
        (once (fun () ->
             clock := !clock +. 1e-6;
             let tuple = tuples.(!fi land 255) in
             incr fi;
             match Net.Fabric.start_flow fabric ~time:!clock ~tuple ~rate:2e4 () with
             | Some id -> Net.Fabric.stop_flow fabric ~time:!clock id
             | None -> ())))
    Manifest.size_curve;
  let rng = Rng.create 13 in
  time "net.switch_model.ns_per_sample_packet"
    (once (fun () -> ignore (Net.Switch_model.sample_packet probe_sw rng)));
  let clock = ref 1.2 in
  time "net.switch_model.ns_per_poll_subject"
    (once (fun () ->
         clock := !clock +. 1e-6;
         ignore
           (Net.Switch_model.poll_subject hh_sw ~time:!clock
              Net.Filter.All_ports)));
  (* sim: a 2000-timer drain *)
  let delays = let r = Rng.create 17 in Array.init 2000 (fun _ -> Rng.float r) in
  time "sim.engine.ns_per_event" (fun () ->
      let e = Engine.create () in
      Array.iter (fun d -> Engine.schedule e ~delay:d ignore) delays;
      Engine.run e;
      Engine.dispatched e);
  (* runtime: a standalone soil as in Fig. 8 — 15 seeds polling distinct
     port counters at 2000 polls/s, under the PCIe limit *)
  (let e = Engine.create ~seed:5 () in
   let sw = Net.Switch_model.create ~id:0 ~ports:16 () in
   let soil = Runtime.Soil.create e sw in
   for i = 1 to 15 do
     ignore
       (Runtime.Soil.subscribe_poll soil ~seed_id:i
          ~subject:(Net.Filter.Port_counter i) ~period:5e-4 ignore)
   done;
   time "runtime.soil.ns_per_delivered_poll" (fun () ->
       let before = (Runtime.Soil.poll_stats soil).completed in
       Engine.run ~until:(Engine.now e +. 0.01) e;
       (Runtime.Soil.poll_stats soil).completed - before));
  let ctx =
    { Runtime.Harvester.send_to_seed = (fun ~switch:_ _ -> ());
      broadcast = ignore; now = (fun () -> 0.); log = ignore }
  in
  let harv = ref (Runtime.Harvester.create Runtime.Harvester.collector_spec ctx)
  and seq = ref 0 in
  let report = A.Value.Str "10.3.1.7" in
  time "runtime.harvester.ns_per_handle"
    (once (fun () ->
         if !seq mod 10_000 = 0 then
           harv := Runtime.Harvester.create Runtime.Harvester.collector_spec ctx;
         let p =
           { Runtime.Harvester.p_seed = !seq mod 20; p_epoch = 0; p_seq = !seq }
         in
         incr seq;
         Runtime.Harvester.handle ~provenance:p !harv
           ~from_switch:(p.p_seed + 1) report));
  (* runtime.checkpoint: a heal-storm heavy-hitter seed's full snapshot *)
  let ck =
    let wd = world_of W.heal_storm ~until:1. in
    let hh_task = List.assoc "heavy-hitter" wd.W.live in
    let exec = List.hd (Seeder.seeds (W.seeder wd) hh_task) in
    let vars, state = Runtime.Seed_exec.snapshot exec in
    { Farm_runtime.Checkpoint.ck_seed = Runtime.Seed_exec.seed_id exec; ck_epoch = 1;
      ck_seq = 0; ck_full = true; ck_vars = vars; ck_removed = [];
      ck_state = state }
  in
  let encoded = Farm_runtime.Checkpoint.encode ck in
  time "runtime.checkpoint.us_per_encode"
    (once (fun () -> ignore (Farm_runtime.Checkpoint.encode ck)));
  time "runtime.checkpoint.us_per_decode"
    (once (fun () -> ignore (Farm_runtime.Checkpoint.decode encoded)));
  (List.rev !out, Farm_runtime.Checkpoint.wire_bytes ck)

(* Medians as (name, value) metrics. *)
let metrics (results, ck_bytes) =
  ("runtime.checkpoint.bytes_per_checkpoint", ck_bytes)
  :: List.concat_map
       (fun ((t : Manifest.timed), r) ->
         [ (Manifest.time_name t, r.time.Stats.median);
           (Manifest.bytes_name t, r.bytes.Stats.median) ])
       results

let to_json (results, ck_bytes) =
  Json.Obj
    (("runtime.checkpoint.bytes_per_checkpoint", Json.Num ck_bytes)
    :: List.concat_map
         (fun ((t : Manifest.timed), r) ->
           [ (Manifest.time_name t, Stats.summary_json ~unit:t.time_unit r.time);
             (Manifest.bytes_name t, Stats.summary_json ~unit:"B" r.bytes) ])
         results)
