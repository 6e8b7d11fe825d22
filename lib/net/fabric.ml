type flow_record = {
  tuple : Flow.five_tuple;
  rate : float;
  flags : Flow.tcp_flags;
  payload : string;
  mutable path : Routing.path;
  mutable switches : int list;
}

type t = {
  topo : Topology.t;
  switches : (int, Switch_model.t) Hashtbl.t;
  mutable next_flow_id : int;
  active : (int, flow_record) Hashtbl.t;
  host_prefixes : Ipaddr.Prefix.t array;
  mutable rerouted : int;
  mutable dropped : int;
}

let create ?caps topo =
  let switches = Hashtbl.create 64 in
  List.iter
    (fun (n : Topology.node) ->
      let ports = Topology.port_count topo n.id in
      Hashtbl.replace switches n.id
        (Switch_model.create ?caps ~id:n.id ~ports ()))
    (Topology.switches topo);
  let host_prefixes =
    Topology.hosts topo
    |> List.filter_map (fun (n : Topology.node) -> n.prefix)
    |> Array.of_list
  in
  { topo; switches; next_flow_id = 0; active = Hashtbl.create 256;
    host_prefixes; rerouted = 0; dropped = 0 }

let topology t = t.topo

let switch t id =
  match Hashtbl.find_opt t.switches id with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Fabric.switch: %d is not a switch" id)

let switch_models t =
  Hashtbl.fold (fun _ s acc -> s :: acc) t.switches []
  |> List.sort (fun a b -> Int.compare (Switch_model.id a) (Switch_model.id b))

(* Egress port of [sw] towards the next node of the path. *)
let rec egress_of topo sw = function
  | a :: (b :: _ as rest) ->
      if a = sw then Topology.port_to topo sw b else egress_of topo sw rest
  | [ _ ] | [] -> 0

let install t ~time ~flow_id (r : flow_record) =
  List.iter
    (fun sw ->
      let egress = egress_of t.topo sw r.path in
      Switch_model.add_flow (switch t sw) ~time ~flow_id ~tuple:r.tuple
        ~rate:r.rate ~flags:r.flags ~payload:r.payload ~egress ())
    r.switches

let uninstall t ~time ~flow_id (r : flow_record) =
  List.iter
    (fun sw -> Switch_model.remove_flow (switch t sw) ~time ~flow_id)
    r.switches

let start_flow t ~time ~tuple ~rate ?(flags = Flow.no_flags) ?(payload = "")
    () =
  match Routing.route_flow t.topo tuple with
  | None -> None
  | Some path ->
      let switches = Routing.path_switches t.topo path in
      let flow_id = t.next_flow_id in
      t.next_flow_id <- t.next_flow_id + 1;
      let r = { tuple; rate; flags; payload; path; switches } in
      install t ~time ~flow_id r;
      Hashtbl.replace t.active flow_id r;
      Some flow_id

let stop_flow t ~time flow_id =
  match Hashtbl.find_opt t.active flow_id with
  | None -> ()
  | Some r ->
      uninstall t ~time ~flow_id r;
      Hashtbl.remove t.active flow_id

let flow_path t flow_id =
  Option.map (fun r -> r.path) (Hashtbl.find_opt t.active flow_id)

let active_flow_count t = Hashtbl.length t.active

let path_uses_link path a b =
  let rec go = function
    | x :: (y :: _ as rest) ->
        (x = a && y = b) || (x = b && y = a) || go rest
    | _ -> false
  in
  go path

let sorted_active t =
  Hashtbl.fold (fun id r acc -> (id, r) :: acc) t.active []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let reroute_flow t ~time flow_id r =
  match Routing.route_flow t.topo r.tuple with
  | Some path when path = r.path -> ()
  | Some path ->
      uninstall t ~time ~flow_id r;
      r.path <- path;
      r.switches <- Routing.path_switches t.topo path;
      install t ~time ~flow_id r;
      t.rerouted <- t.rerouted + 1
  | None ->
      uninstall t ~time ~flow_id r;
      Hashtbl.remove t.active flow_id;
      t.dropped <- t.dropped + 1

let set_link_state t ~time a b ~up =
  if Topology.link_is_up t.topo a b <> up then begin
    Topology.set_link_state t.topo a b ~up;
    if not up then
      (* move flows off the dead link *)
      List.iter
        (fun (flow_id, r) ->
          if path_uses_link r.path a b then reroute_flow t ~time flow_id r)
        (sorted_active t)
    else
      (* re-run ECMP so flows spread back over the restored link *)
      List.iter
        (fun (flow_id, r) -> reroute_flow t ~time flow_id r)
        (sorted_active t)
  end

let rerouted_flows t = t.rerouted
let dropped_flows t = t.dropped

let random_host_addr t rng =
  if Array.length t.host_prefixes = 0 then
    invalid_arg "Fabric.random_host_addr: topology has no hosts";
  let p = Farm_sim.Rng.choose rng t.host_prefixes in
  let base = Ipaddr.to_int (Ipaddr.Prefix.address p) in
  let host_bits = 32 - Ipaddr.Prefix.length p in
  let off =
    if host_bits = 0 then 0
    else 1 + Farm_sim.Rng.int rng (Stdlib.max 1 ((1 lsl host_bits) - 2))
  in
  Ipaddr.of_int (base lor off)
