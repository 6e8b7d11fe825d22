module Frontend = Farm_almanac.Frontend
module Diagnostic = Farm_almanac.Diagnostic

let all : Task_common.entry list =
  [ Hh.hh;
    Hh.hhh_inherited;
    Hh.hhh;
    Ddos.ddos;
    Tcp_tasks.new_tcp_conn;
    Tcp_tasks.tcp_syn_flood;
    Tcp_tasks.partial_tcp_flow;
    Tcp_tasks.slowloris;
    Infra_tasks.link_failure;
    Infra_tasks.traffic_change;
    Infra_tasks.flow_size_distribution;
    Scan_tasks.superspreader;
    Scan_tasks.ssh_brute_force;
    Scan_tasks.port_scan;
    Scan_tasks.dns_reflection;
    Infra_tasks.entropy_estimation;
    Ddos.flood_defender ]

(* sketch-based variants: the §VIII future-work extension *)
let extensions : Task_common.entry list =
  [ Sketch_tasks.sketch_heavy_hitter; Sketch_tasks.sketch_superspreader ]

let names = List.map (fun (e : Task_common.entry) -> e.name) all

let find name =
  match
    List.find_opt
      (fun (e : Task_common.entry) -> e.name = name)
      (all @ extensions)
  with
  | Some e -> e
  | None -> invalid_arg (Printf.sprintf "Catalog.find: unknown task %s" name)

let table1_loc (e : Task_common.entry) =
  if e.name = Hh.hhh_inherited.name then
    (* only the delta over the inherited HH machine *)
    Task_common.seed_loc e - Task_common.seed_loc Hh.hh
  else Task_common.seed_loc e

let compile_one topo (e : Task_common.entry) =
  let ( let* ) = Result.bind in
  let* program =
    Result.map_error
      (fun ds -> String.concat "; " (List.map Diagnostic.to_string ds))
      (Frontend.load ~extra:e.extra_sigs e.source)
  in
  List.fold_left
    (fun acc analysis ->
      let* () = acc in
      Result.map ignore analysis)
    (Ok ())
    (Frontend.analyze ~topo ~externals:e.externals program)

let compile_all topo =
  List.map
    (fun (e : Task_common.entry) -> (e.name, compile_one topo e))
    all
