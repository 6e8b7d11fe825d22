module Engine = Farm_sim.Engine
module Fault = Farm_sim.Fault
module Fabric = Farm_net.Fabric
module Topology = Farm_net.Topology
module Switch_model = Farm_net.Switch_model

let soil_opt seeder node =
  if List.exists (fun s -> Soil.node_id s = node) (Seeder.soils seeder) then
    Some (Seeder.soil seeder node)
  else None

let handlers seeder =
  let fabric = Seeder.fabric seeder in
  let topo = Fabric.topology fabric in
  let engine = Seeder.engine seeder in
  let with_soil node f = match soil_opt seeder node with
    | Some s -> f s
    | None -> ()
  in
  let is_switch node =
    List.mem node (Topology.switch_ids topo)
  in
  (* active traffic surges by (canonical) link; a switch's multiplier is
     the product over the surged links it terminates, so overlapping
     surges compose and each calm unwinds exactly its own contribution *)
  let link_surges : (int * int, float) Hashtbl.t = Hashtbl.create 8 in
  let canon (a, b) = if a <= b then (a, b) else (b, a) in
  let switch_factor node =
    let hits =
      Hashtbl.fold
        (fun (a, b) f l -> if a = node || b = node then (a, b, f) :: l else l)
        link_surges []
      |> List.sort compare
    in
    List.fold_left (fun acc (_, _, f) -> acc *. f) 1. hits
  in
  let refresh_surge links =
    List.concat_map (fun (a, b) -> [ a; b ]) links
    |> List.sort_uniq Int.compare
    |> List.iter (fun node ->
           if is_switch node then
             with_soil node (fun s ->
                 Switch_model.set_surge (Soil.switch s)
                   ~time:(Engine.now engine) (switch_factor node)))
  in
  {
    (* switch events are silent ground-truth crashes; the seeder's
       detector tells the control plane (unknown nodes are ignored) *)
    Fault.on_switch_down = Seeder.crash_switch seeder;
    on_switch_up = Seeder.revive_switch seeder;
    on_link_down =
      (fun a b ->
        if Topology.has_link topo a b then
          Fabric.set_link_state fabric ~time:(Engine.now engine) a b ~up:false);
    on_link_up =
      (fun a b ->
        if Topology.has_link topo a b then
          Fabric.set_link_state fabric ~time:(Engine.now engine) a b ~up:true);
    on_ctrl_degrade =
      (fun ~loss ~delay ~dup ->
        Control.set_faults (Seeder.control seeder)
          { Control.loss; delay; dup });
    on_ctrl_restore =
      (fun () -> Control.set_faults (Seeder.control seeder) Control.perfect);
    on_counter_freeze = (fun node -> with_soil node (fun s -> Soil.set_frozen s true));
    on_counter_thaw = (fun node -> with_soil node (fun s -> Soil.set_frozen s false));
    on_counter_glitch = (fun node -> with_soil node (fun s -> Soil.glitch s));
    (* overload faults *)
    on_traffic_surge =
      (fun ~links ~factor ->
        let links =
          List.filter (fun (a, b) -> Topology.has_link topo a b) links
        in
        List.iter (fun l -> Hashtbl.replace link_surges (canon l) factor) links;
        refresh_surge links);
    on_traffic_calm =
      (fun ~links ->
        let links =
          List.filter (fun (a, b) -> Topology.has_link topo a b) links
        in
        List.iter (fun l -> Hashtbl.remove link_surges (canon l)) links;
        refresh_surge links);
    on_report_storm =
      (fun ~node ~reports ->
        if is_switch node then
          Seeder.inject_report_storm seeder ~node ~reports);
    on_pcie_degrade =
      (fun ~node ~factor ->
        with_soil node (fun s -> Soil.set_pcie_factor s factor));
    on_pcie_restore =
      (fun node -> with_soil node (fun s -> Soil.set_pcie_factor s 1.));
  }

let inject ?on_applied seeder plan =
  Fault.inject ?on_applied (Seeder.engine seeder) (handlers seeder) plan
