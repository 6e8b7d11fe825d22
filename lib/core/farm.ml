(** FARM — comprehensive data center network monitoring and management.

    This umbrella module re-exports the whole system and provides a
    high-level API ({!World}) that sets up a simulated data center and
    deploys M&M tasks in a few calls.  See the [examples/] directory for
    runnable walkthroughs.

    Layers (bottom-up):
    - {!Optim}: LP/MILP substrate (simplex, branch & bound);
    - {!Sim}: deterministic discrete-event simulation;
    - {!Net}: topology, switches (ASIC/TCAM/counters), routing, traffic;
    - {!Almanac}: the DSL — parser, type checker, static analyses,
      interpreter;
    - {!Placement}: the §IV optimization model, MILP and Alg. 1 heuristic;
    - {!Runtime}: soils, seeds, harvesters, the seeder;
    - {!Baselines}: sFlow / Sonata / Planck / Helios comparators;
    - {!Tasks}: the Table I use-case catalog. *)

module Optim = struct
  module Lin_expr = Farm_optim.Lin_expr
  module Simplex = Farm_optim.Simplex
  module Milp = Farm_optim.Milp
end

module Sim = struct
  module Rng = Farm_sim.Rng
  module Engine = Farm_sim.Engine
  module Metrics = Farm_sim.Metrics
  module Trace = Farm_sim.Trace
  module Sweep = Farm_sim.Sweep
end

module Net = struct
  module Ipaddr = Farm_net.Ipaddr
  module Flow = Farm_net.Flow
  module Filter = Farm_net.Filter
  module Tcam = Farm_net.Tcam
  module Topology = Farm_net.Topology
  module Routing = Farm_net.Routing
  module Switch_model = Farm_net.Switch_model
  module Fabric = Farm_net.Fabric
  module Traffic = Farm_net.Traffic
end

module Almanac = struct
  module Ast = Farm_almanac.Ast
  module Lexer = Farm_almanac.Lexer
  module Parser = Farm_almanac.Parser
  module Pretty = Farm_almanac.Pretty
  module Typecheck = Farm_almanac.Typecheck
  module Diagnostic = Farm_almanac.Diagnostic
  module Lint = Farm_almanac.Lint
  module Bounds = Farm_almanac.Bounds
  module Frontend = Farm_almanac.Frontend
  module Value = Farm_almanac.Value
  module Analysis = Farm_almanac.Analysis
  module Host = Farm_almanac.Host
  module Builtins = Farm_almanac.Builtins
  module Interp = Farm_almanac.Interp
  module Compile = Farm_almanac.Compile
  module Exec = Farm_almanac.Exec
  module Symexec = Farm_almanac.Symexec
  module Equiv = Farm_almanac.Equiv
  module Reach = Farm_almanac.Reach
  module Engine = Farm_almanac.Engine
  module Xml = Farm_almanac.Xml
  module Machine_xml = Farm_almanac.Machine_xml
end

module Placement = struct
  module Model = Farm_placement.Model
  module Heuristic = Farm_placement.Heuristic
  module Milp_formulation = Farm_placement.Milp_formulation
  module Conflict = Farm_placement.Conflict
end

module Runtime = struct
  module Cpu_model = Farm_runtime.Cpu_model
  module Ipc = Farm_runtime.Ipc
  module Soil = Farm_runtime.Soil
  module Seed_exec = Farm_runtime.Seed_exec
  module Harvester = Farm_runtime.Harvester
  module Control = Farm_runtime.Control
  module Healing = Farm_runtime.Healing
  module Seeder = Farm_runtime.Seeder
end

module Baselines = struct
  module Collector = Farm_baselines.Collector
  module Sflow = Farm_baselines.Sflow
  module Sonata = Farm_baselines.Sonata
  module Planck = Farm_baselines.Planck
  module Helios = Farm_baselines.Helios
end

module Sketches = struct
  module Count_min = Farm_sketches.Count_min
  module Hyperloglog = Farm_sketches.Hyperloglog
end

module Tasks = struct
  module Catalog = Farm_tasks.Catalog
  module Task_common = Farm_tasks.Task_common
  module Hh = Farm_tasks.Hh
  module Ddos = Farm_tasks.Ddos
  module Tcp_tasks = Farm_tasks.Tcp_tasks
  module Scan_tasks = Farm_tasks.Scan_tasks
  module Infra_tasks = Farm_tasks.Infra_tasks
  module Sketch_tasks = Farm_tasks.Sketch_tasks
end

(** A ready-to-use simulated data center: engine + fabric + seeder. *)
module World = struct
  type t = {
    engine : Farm_sim.Engine.t;
    topology : Farm_net.Topology.t;
    fabric : Farm_net.Fabric.t;
    seeder : Farm_runtime.Seeder.t;
    rng : Farm_sim.Rng.t;
  }

  (** [create ()] builds a spine-leaf fabric (defaults: 2 spines, 4 leaves,
      2 hosts per leaf) with a soil on every switch. *)
  let create ?(seed = 42) ?(spines = 2) ?(leaves = 4) ?(hosts_per_leaf = 2)
      ?seeder_config () =
    let engine = Farm_sim.Engine.create ~seed () in
    let topology = Farm_net.Topology.spine_leaf ~spines ~leaves ~hosts_per_leaf in
    let fabric = Farm_net.Fabric.create topology in
    let seeder =
      Farm_runtime.Seeder.create ?config:seeder_config engine fabric
    in
    let rng = Farm_sim.Rng.split (Farm_sim.Engine.rng engine) in
    { engine; topology; fabric; seeder; rng }

  (** Deploy a catalog task by name (see {!Tasks.Catalog.names}). *)
  let deploy_catalog_task t name =
    Farm_runtime.Seeder.deploy t.seeder
      (Farm_tasks.Task_common.to_task_spec (Farm_tasks.Catalog.find name))

  (** Deploy Almanac source with default settings. *)
  let deploy_source t ~name source =
    Farm_runtime.Seeder.deploy t.seeder
      (Farm_runtime.Seeder.simple_spec ~name ~source)

  (** Generate steady background traffic. *)
  let background_traffic ?(flows = 100) t =
    Farm_net.Traffic.background t.engine t.fabric t.rng
      { Farm_net.Traffic.default_profile with concurrent_flows = flows }

  (** Advance the simulation. *)
  let run ?until t = Farm_sim.Engine.run ?until t.engine

  let now t = Farm_sim.Engine.now t.engine
end
