(* The four farmbench workloads.  Each is a batch: fixed simulated work on
   a fixed fabric, with every input (incident times, endpoints, victims,
   crash and storm schedules) drawn from the workload seed through
   [Sim.Rng.derive_seed].  The library only sees the generated inputs and
   the derived engine seed, so one seed always replays the same run. *)

open Farm
module Engine = Sim.Engine
module Rng = Sim.Rng
module Trace = Sim.Trace
module Histogram = Sim.Metrics.Histogram
module Fabric = Net.Fabric
module Seeder = Runtime.Seeder
module Harvester = Runtime.Harvester

type size = Full | Smoke

(* Ground truth the monitoring has to answer: [task]'s first accepted
   report in [onset, deadline) is the response. *)
type incident = { task : string; onset : float; deadline : float }

type world = {
  w : World.t;
  mutable live : (string * Seeder.task) list;  (* deployed, oldest first *)
  mutable deployed : (string * Seeder.task) list;  (* ever, newest first *)
  mutable deploy_ms : float list;  (* latency of every catalog deploy *)
  mutable undeploy_ms : float list;
  mutable deploys : int;
  mutable refused : string list;  (* tasks whose deploy was refused *)
  mutable incidents : incident list;
  mutable orphans : int;  (* heal-storm: roaming seeds on crashed switches *)
  mutable on_slice : unit -> unit;  (* after every simulated slice *)
}

type t = {
  name : string;
  why : string;
  setup : seed:int -> size -> Trace.t option -> world;
      (** World.create + every set-up deploy + traffic install *)
  run : size -> world -> unit;  (** the measured simulated work *)
  responses : world -> float list * (string * int * int) list;
      (** response latencies (simulated ms) of answered incidents, and per
          detecting task (task, answered, missed) *)
}

let engine wd = wd.w.World.engine
let seeder wd = wd.w.World.seeder

(* A fresh world with the engine seed derived from the workload seed; the
   tracer, when given, is attached before anything is deployed so the
   harvesters pick it up too. *)
let create ~seed ?seeder_config ~spines ~leaves ~hosts_per_leaf tracer =
  let w =
    World.create ~seed:(Rng.derive_seed seed ~stream:0) ~spines ~leaves
      ~hosts_per_leaf ?seeder_config ()
  in
  Engine.set_tracer w.World.engine tracer;
  { w; live = []; deployed = []; deploy_ms = []; undeploy_ms = [];
    deploys = 0; refused = [];
    incidents = []; orphans = 0; on_slice = ignore }

(* Deploy [spec] as [name]; returns the call's seconds. *)
let deploy_spec wd name spec =
  let r, s =
    Calib.time (fun () ->
        Spans.with_span ~cat:"layer" "seeder.deploy" (fun () ->
            Seeder.deploy (seeder wd) spec))
  in
  wd.deploys <- wd.deploys + 1;
  (match r with
  | Ok task ->
      wd.live <- wd.live @ [ (name, task) ];
      wd.deployed <- (name, task) :: wd.deployed
  | Error _ -> wd.refused <- name :: wd.refused);
  s

(* Deploy a catalog task, or [spec], a variant of one; the deploy
   latencies are those of catalog tasks (heal-storm's roamers are
   scaffolding for its crashes). *)
let deploy_catalog wd name (spec : Seeder.task_spec) =
  wd.deploy_ms <- (1e3 *. deploy_spec wd name spec) :: wd.deploy_ms

let catalog_spec name = Tasks.Task_common.to_task_spec (Tasks.Catalog.find name)
let deploy wd name = deploy_catalog wd name (catalog_spec name)

let undeploy_oldest wd =
  match wd.live with
  | [] -> ()
  | (_, task) :: rest ->
      wd.live <- rest;
      let (), s =
        Calib.time (fun () ->
            Spans.with_span ~cat:"layer" "seeder.undeploy" (fun () ->
                Seeder.undeploy (seeder wd) task))
      in
      wd.undeploy_ms <- (1e3 *. s) :: wd.undeploy_ms

(* Advance simulated time in slices of at most one second, so a traced
   run can drain its sink between slices. *)
let advance wd ~until =
  let e = engine wd in
  while Engine.now e < until do
    let next_second = Float.of_int (truncate (Engine.now e)) +. 1. in
    Engine.run ~until:(Float.min until next_second) e;
    wd.on_slice ()
  done

let background wd ~flows =
  World.background_traffic ~flows wd.w

(* Endpoints on two distinct hosts, so the flow always has a route. *)
let endpoints wd rng =
  let fabric = wd.w.World.fabric in
  let topo = Fabric.topology fabric in
  let rec go () =
    let src = Fabric.random_host_addr fabric rng
    and dst = Fabric.random_host_addr fabric rng in
    if Net.Topology.host_of_addr topo src = Net.Topology.host_of_addr topo dst
    then go ()
    else (src, dst)
  in
  go ()

(* [tuple] at [rate] bytes/s from [at] for [dur] seconds. *)
let flow wd ~at ~dur ?flags ?payload ~rate tuple =
  let fabric = wd.w.World.fabric in
  Engine.schedule_at (engine wd) ~time:at (fun e ->
      match
        Fabric.start_flow fabric ~time:(Engine.now e) ~tuple ~rate ?flags
          ?payload ()
      with
      | Some id ->
          Engine.schedule e ~delay:dur (fun e ->
              Fabric.stop_flow fabric ~time:(Engine.now e) id)
      | None -> ())

let tcp src dst ~sport ~dport =
  { Net.Flow.src; dst; sport; dport; proto = Net.Flow.Tcp }

(* An elephant between [src] and [dst] from [onset] for [dur] seconds. *)
let elephant wd ~onset ~dur ~rate (src, dst) =
  flow wd ~at:onset ~dur ~rate (tcp src dst ~sport:40_000 ~dport:5001)

(* Every catalog probe task samples at the full PCIe rate on its own (one
   1000-byte packet per 1 ms probe is the bus's 8 Mbit/s), so workloads
   that co-deploy them run the soils' bounded fair-share PCIe queue.  The
   default FIFO queue grows to its 1 s cap and drops every sample of the
   seeds whose timers fire last: co-deployed, port-scan answered none of
   its attacks. *)
let fair_soils =
  { Seeder.default_config with
    Seeder.soil_config =
      { Runtime.Soil.default_config with
        overload = Some Runtime.Soil.default_overload } }

(* First accepted report of each incident's task inside its window. *)
let match_reports wd ~is_response =
  let reports name =
    match List.assoc_opt name wd.deployed with
    | Some task ->
        List.rev (Harvester.received (Seeder.harvester task))
        |> List.filter_map (fun (t, _, v) -> if is_response v then Some t else None)
    | None -> []
  in
  let cache = Hashtbl.create 8 in
  let reports name =
    match Hashtbl.find_opt cache name with
    | Some r -> r
    | None ->
        let r = reports name in
        Hashtbl.replace cache name r;
        r
  in
  let per_task = Hashtbl.create 8 in
  let bump task hit =
    let a, m = Option.value (Hashtbl.find_opt per_task task) ~default:(0, 0) in
    Hashtbl.replace per_task task (if hit then (a + 1, m) else (a, m + 1))
  in
  let responses =
    List.filter_map
      (fun inc ->
        match
          List.find_opt
            (fun t -> t >= inc.onset && t < inc.deadline)
            (reports inc.task)
        with
        | Some t ->
            bump inc.task true;
            Some (1e3 *. (t -. inc.onset))
        | None ->
            bump inc.task false;
            None)
      (List.rev wd.incidents)
  in
  let table =
    Hashtbl.fold (fun task (a, m) acc -> (task, a, m) :: acc) per_task []
    |> List.sort compare
  in
  (responses, table)

(* [n] phases in [0, 1), one in each of [n] equal strata, in seed-drawn
   order.  Every seed covers the phases evenly, so a response percentile
   moves with the system and not with where one seed's onsets fell. *)
let phases rng n =
  let strata = Array.init n Fun.id in
  Rng.shuffle rng strata;
  Array.map (fun s -> (float_of_int s +. Rng.float rng) /. float_of_int n) strata

(* ------------------------------------------------------------------ *)
(* hh-poll                                                             *)
(* ------------------------------------------------------------------ *)

(* The paper's 20-switch fabric (§VI-A b): 4 spines, 16 leaves. *)
let paper_fabric = (4, 16, 2)

let hh_rate = 2e7 (* bytes/s, 20x the task's 1 MB/s threshold *)

(* Each elephant starts at a seed-drawn phase of the 1 ms poll period, so
   a response is the wait for the next poll plus the poll-to-harvester
   pipeline. *)
let hh_poll =
  let period = 0.4 and dur = 0.2 in
  let count = function Full -> 100 | Smoke -> 5 in
  { name = "hh-poll";
    why =
      "heavy-hitter at a 1 ms poll on 20 switches: counter polls through \
       soil PCIe/IPC and compiled handlers dominate; placement is idle";
    setup =
      (fun ~seed size tracer ->
        let spines, leaves, hosts_per_leaf = paper_fabric in
        let wd = create ~seed ~spines ~leaves ~hosts_per_leaf tracer in
        deploy wd "heavy-hitter";
        Net.Traffic.background (engine wd) wd.w.World.fabric wd.w.World.rng
          { Net.Traffic.default_profile with
            concurrent_flows = 60; mean_rate = 20_000. };
        let rng = Rng.create (Rng.derive_seed seed ~stream:1) in
        let phase = phases rng (count size) in
        for k = 0 to count size - 1 do
          let onset = 1. +. (period *. float_of_int k) +. (0.001 *. phase.(k)) in
          elephant wd ~onset ~dur ~rate:hh_rate (endpoints wd rng);
          wd.incidents <-
            { task = "heavy-hitter"; onset; deadline = onset +. dur }
            :: wd.incidents
        done;
        wd);
    run =
      (fun size wd ->
        advance wd ~until:(1. +. (period *. float_of_int (count size))));
    responses =
      (* a non-empty hitter list; the empty list marks the flow's end *)
      match_reports ~is_response:(function
        | Almanac.Value.List (_ :: _) -> true
        | _ -> false) }

(* ------------------------------------------------------------------ *)
(* probe-mix                                                           *)
(* ------------------------------------------------------------------ *)

(* The probe-based detectors, each paired with the attack it is meant to
   catch. *)
let probe_detectors =
  [ "tcp-syn-flood"; "dns-reflection"; "ssh-brute-force"; "port-scan";
    "superspreader" ]

(* Slowloris and new-tcp-connections run beside the detectors without an
   attack of their own: the switch model samples packets in proportion to
   bytes, so slowloris's connections of 10 B/s are almost never sampled
   and its detector misses them even deployed alone. *)
let probe_mix_tasks = probe_detectors @ [ "slowloris"; "new-tcp-connections" ]

(* The single-source attacks are built here rather than taken from
   [Net.Traffic], whose generators draw the attacker themselves: one
   attacker in 32 lands on the victim's own host, where no switch sees
   the attack.  Here the attacker comes from [(src, victim)], on a leaf of
   its own.  The scan and the spreader reach 128 ports or hosts, far past
   their detectors' thresholds (15 ports, 30 hosts), so a batch's answers
   measure the system and not how close a seed came to a threshold. *)
let launch_attack wd rng ~task ~at ~duration (src, victim) =
  let e = engine wd and fabric = wd.w.World.fabric in
  match task with
  | "tcp-syn-flood" ->
      Net.Traffic.syn_flood e fabric rng ~at ~duration ~victim
        ~rate_per_source:5_000. ~sources:40
  | "dns-reflection" ->
      Net.Traffic.dns_reflection e fabric rng ~at ~duration ~victim
        ~reflectors:20 ~rate_per_reflector:50_000.
  | "ssh-brute-force" ->
      (* a new connection to port 22 every 10 ms, each open for 0.2 s *)
      for k = 0 to truncate (duration /. 0.01) - 1 do
        flow wd ~at:(at +. (0.01 *. float_of_int k)) ~dur:0.2 ~rate:1000.
          ~flags:Net.Flow.syn_only
          (tcp src victim ~sport:(1024 + Rng.int rng 60_000) ~dport:22)
      done
  | "port-scan" ->
      for i = 0 to 127 do
        flow wd ~at ~dur:duration ~rate:500. ~flags:Net.Flow.syn_only
          (tcp src victim ~sport:(40_000 + i) ~dport:(1 + i))
      done
  | "superspreader" ->
      for _ = 1 to 128 do
        flow wd ~at ~dur:duration ~rate:4000.
          (tcp src (Fabric.random_host_addr fabric rng)
             ~sport:(1024 + Rng.int rng 60_000) ~dport:(1024 + Rng.int rng 60_000))
      done
  | _ -> invalid_arg ("no attack generator for " ^ task)

(* Every [period] an episode starts at a seed-drawn phase of its first
   second (so onsets do not line up with the detectors' windows) and
   runs every detector's attack for [duration]; an attack counts as
   answered when its detector reports before the next episode can start. *)
let probe_mix =
  let period = 4. and duration = 2. in
  let episodes = function Full -> 12 | Smoke -> 1 in
  { name = "probe-mix";
    why =
      "seven probe tasks co-deployed under recurring attacks: packet \
       sampling, filter matching, the fair-share PCIe queue, TCAM installs \
       and harvester ingest; few counter polls";
    setup =
      (fun ~seed size tracer ->
        let spines, leaves, hosts_per_leaf = paper_fabric in
        let wd =
          create ~seed ~seeder_config:fair_soils ~spines ~leaves ~hosts_per_leaf
            tracer
        in
        List.iter (deploy wd) probe_mix_tasks;
        Net.Traffic.background (engine wd) wd.w.World.fabric wd.w.World.rng
          { Net.Traffic.default_profile with
            concurrent_flows = 60; mean_rate = 20_000. };
        let rng = Rng.create (Rng.derive_seed seed ~stream:2) in
        let attack_rng = Rng.create (Rng.derive_seed seed ~stream:3) in
        let phase = phases rng (episodes size) in
        let topo = Fabric.topology wd.w.World.fabric in
        let leaf addr =
          match Net.Topology.host_of_addr topo addr with
          | Some h -> List.hd (Net.Topology.neighbors topo h)
          | None -> -1
        in
        for k = 0 to episodes size - 1 do
          let at = 1. +. (period *. float_of_int k) +. phase.(k) in
          (* each attack's two hosts on leaves no other attack of the
             episode uses, so one attack does not dilute the samples
             another's detector draws at the edge *)
          let used = ref [] in
          let rec apart () =
            let src, dst = endpoints wd rng in
            let a = leaf src and b = leaf dst in
            if a = b || List.mem a !used || List.mem b !used then apart ()
            else begin
              used := a :: b :: !used;
              (src, dst)
            end
          in
          List.iter
            (fun task ->
              launch_attack wd attack_rng ~task ~at ~duration (apart ());
              wd.incidents <-
                { task; onset = at; deadline = at +. period -. 1. }
                :: wd.incidents)
            probe_detectors
        done;
        wd);
    run =
      (fun size wd ->
        advance wd ~until:(1. +. (period *. float_of_int (episodes size))));
    responses = match_reports ~is_response:(fun _ -> true) }

(* ------------------------------------------------------------------ *)
(* deploy-churn                                                        *)
(* ------------------------------------------------------------------ *)

let churn_fabric = (8, 88, 1)

(* Closed loop with one operator: deploy the next catalog task, undeploy
   the oldest once more than [max_live] are live, let [step] simulated
   seconds pass, repeat.  A resident heavy-hitter watches elephants the
   whole time, so the churn's effect on a running task shows up as its
   response latency.  The operator marks the resident task critical: its
   seeds come first in the soils' PCIe queues and never enter degraded
   mode.  Left to the fair share it missed 11 to 18 of 60 elephants, and
   first in the queues but allowed to degrade, 2 to 4.  ddos is not
   rolled: beside the live set it cannot be placed on this fabric and
   every deploy of it is refused. *)
let deploy_churn =
  let max_live = 6 and step = 0.005 in
  let deploys = function Full -> 60 | Smoke -> 6 in
  let rolling =
    Array.of_list (List.filter (( <> ) "ddos") Tasks.Catalog.names)
  in
  { name = "deploy-churn";
    why =
      "rolling deploy/undeploy of the catalog on 96 switches: almanac \
       front end, analysis, placement and seed set-up, under which a \
       resident heavy-hitter keeps answering";
    setup =
      (fun ~seed size tracer ->
        let spines, leaves, hosts_per_leaf = churn_fabric in
        let wd =
          create ~seed ~seeder_config:fair_soils ~spines ~leaves ~hosts_per_leaf
            tracer
        in
        deploy_catalog wd "heavy-hitter"
          { (catalog_spec "heavy-hitter") with Seeder.ts_adaptive = [] };
        (match wd.live with
        | [ (_, resident) ] ->
            List.iter
              (fun x ->
                Runtime.Soil.set_seed_priority (Runtime.Seed_exec.soil x)
                  ~seed_id:(Runtime.Seed_exec.seed_id x) 1)
              (Seeder.seeds (seeder wd) resident)
        | _ -> ());
        wd.live <- [];  (* the resident task is never rolled out *)
        background wd ~flows:40;
        (* one elephant per step, starting 1-2 ms after its deploy at a
           seed-drawn phase of the 1 ms poll period *)
        let rng = Rng.create (Rng.derive_seed seed ~stream:4) in
        let phase = phases rng (deploys size) in
        for k = 0 to deploys size - 1 do
          let onset = (step *. float_of_int k) +. 0.001 +. (0.001 *. phase.(k))
          and dur = 0.0035 in
          elephant wd ~onset ~dur ~rate:hh_rate (endpoints wd rng);
          wd.incidents <-
            { task = "heavy-hitter"; onset; deadline = onset +. dur }
            :: wd.incidents
        done;
        wd);
    run =
      (fun size wd ->
        for i = 0 to deploys size - 1 do
          deploy wd rolling.(i mod Array.length rolling);
          if List.length wd.live > max_live then undeploy_oldest wd;
          advance wd ~until:(Engine.now (engine wd) +. step)
        done);
    responses =
      (fun wd ->
        (* the resident instance is the oldest deployment of its name *)
        let resident = List.nth wd.deployed (List.length wd.deployed - 1) in
        match_reports
          { wd with deployed = [ resident ] }
          ~is_response:(function
            | Almanac.Value.List (_ :: _) -> true
            | _ -> false)) }

(* ------------------------------------------------------------------ *)
(* heal-storm                                                          *)
(* ------------------------------------------------------------------ *)

let roamer i =
  Printf.sprintf
    {|
machine Roam%d {
  place any;
  poll ticks = Poll { .ival = 0.01, .what = port ANY };
  long count = 0;
  state s { when (ticks as stats) do { count = count + 1; } }
}
|}
    i

(* Crash every [crash_period] the switch hosting one of the roamers
   (round robin) and revive it [down_for] later; every [storm_period] a
   switch drawn from the seed blasts a report storm.  A recovery counts
   when the re-placed seed runs again within the detector's bound. *)
let heal_storm =
  let roamers = 4 and crash_period = 0.3 and down_for = 0.15 in
  let storm_period = 1. and storm_reports = 300 in
  let crashes = function Full -> 90 | Smoke -> 8 in
  let horizon size = 0.5 +. (crash_period *. float_of_int (crashes size)) in
  let config = { Seeder.overload_defaults with Seeder.auto_heal = true } in
  let deadline =
    config.Seeder.detection_timeout +. (2. *. config.Seeder.heartbeat_interval)
  in
  { name = "heal-storm";
    why =
      "switch crashes and report storms with self-healing on: failure \
       detector, checkpoints, incremental re-placement and shedding";
    setup =
      (fun ~seed size tracer ->
        let spines, leaves, hosts_per_leaf = paper_fabric in
        let wd =
          create ~seed ~seeder_config:config ~spines ~leaves ~hosts_per_leaf
            tracer
        in
        deploy wd "heavy-hitter";
        for i = 0 to roamers - 1 do
          let name = Printf.sprintf "roam%d" i in
          ignore
            (deploy_spec wd name (Seeder.simple_spec ~name ~source:(roamer i))
              : float)
        done;
        background wd ~flows:40;
        let e = engine wd and s = seeder wd in
        let rng = Rng.create (Rng.derive_seed seed ~stream:5) in
        let roam_tasks = List.filter (fun (n, _) -> n <> "heavy-hitter") wd.live in
        for k = 0 to crashes size - 1 do
          let at = 0.5 +. (crash_period *. float_of_int k) +. Rng.uniform rng 0. 0.02 in
          let _, target = List.nth roam_tasks (k mod roamers) in
          Engine.schedule_at e ~time:at (fun e ->
              match Seeder.seeds s target with
              | exec :: _ ->
                  let node = Runtime.Seed_exec.node exec in
                  List.iter
                    (fun (_, task) ->
                      List.iter
                        (fun x ->
                          if Runtime.Seed_exec.node x = node then
                            wd.orphans <- wd.orphans + 1)
                        (Seeder.seeds s task))
                    roam_tasks;
                  Seeder.crash_switch s node;
                  Engine.schedule e ~delay:down_for (fun _ ->
                      Seeder.revive_switch s node)
              | [] -> ())
        done;
        let switches = Array.of_list (Net.Topology.switch_ids wd.w.World.topology) in
        let t = ref 0.75 in
        while !t < horizon size do
          let node = Rng.choose rng switches in
          Engine.schedule_at e ~time:!t (fun _ ->
              Seeder.inject_report_storm s ~node ~reports:storm_reports);
          t := !t +. storm_period
        done;
        wd);
    run = (fun size wd -> advance wd ~until:(horizon size));
    responses =
      (fun wd ->
        (* [Histogram.percentile] at rank k/(n-1) reads back the k-th
           smallest sample *)
        let h = Seeder.recovery_time (seeder wd) in
        let n = Histogram.count h in
        let samples =
          List.init n (fun k ->
              if n = 1 then Histogram.percentile h 0.
              else
                Histogram.percentile h
                  (100. *. float_of_int k /. float_of_int (n - 1)))
        in
        let on_time = List.filter (fun s -> s <= deadline) samples in
        let answered = List.length on_time in
        ( List.map (fun s -> 1e3 *. s) on_time,
          [ ("roaming-recovery", answered, max 0 (wd.orphans - answered)) ] )) }

let all = [ hh_poll; probe_mix; deploy_churn; heal_storm ]

let find name = List.find_opt (fun w -> w.name = name) all
