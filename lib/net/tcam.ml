type action =
  | Forward of int
  | Drop
  | Rate_limit of float
  | Set_qos of int
  | Mirror
  | Count

type region = Forwarding | Monitoring

type rule = { pattern : Filter.t; action : action; priority : int }

type counters = { mutable bytes : float; mutable packets : float }

type installed = {
  id : int;
  region : region;
  rule : rule;
  counters : counters;
}

let bytes e = e.counters.bytes
let packets e = e.counters.packets

type t = {
  capacity : int;
  mon_capacity : int;
  mutable next_id : int;
  mutable version : int;
  mutable forwarding : installed list;  (* sorted by decreasing priority *)
  mutable monitoring : installed list;
}

let create ?(monitoring_share = 0.25) ~capacity () =
  if capacity <= 0 then invalid_arg "Tcam.create: capacity must be positive";
  if monitoring_share < 0. || monitoring_share > 1. then
    invalid_arg "Tcam.create: monitoring_share must be in [0, 1]";
  let mon_capacity = int_of_float (float_of_int capacity *. monitoring_share) in
  { capacity; mon_capacity; next_id = 0; version = 0; forwarding = [];
    monitoring = [] }

let capacity t = t.capacity
let version t = t.version

let region_capacity t = function
  | Forwarding -> t.capacity - t.mon_capacity
  | Monitoring -> t.mon_capacity

let region_rules t = function
  | Forwarding -> t.forwarding
  | Monitoring -> t.monitoring

let region_used t r = List.length (region_rules t r)
let free t r = region_capacity t r - region_used t r

let insert_sorted entry rules =
  let rec go = function
    | [] -> [ entry ]
    | e :: rest when e.rule.priority >= entry.rule.priority -> e :: go rest
    | rest -> entry :: rest
  in
  go rules

let add t region rule =
  if free t region <= 0 then Error `Full
  else begin
    let entry =
      { id = t.next_id; region; rule;
        counters = { bytes = 0.; packets = 0. } }
    in
    t.next_id <- t.next_id + 1;
    t.version <- t.version + 1;
    (match region with
    | Forwarding -> t.forwarding <- insert_sorted entry t.forwarding
    | Monitoring -> t.monitoring <- insert_sorted entry t.monitoring);
    Ok entry
  end

let remove t region ~pattern =
  let keep, gone =
    List.partition
      (fun e -> not (Filter.equal e.rule.pattern pattern))
      (region_rules t region)
  in
  (match region with
  | Forwarding -> t.forwarding <- keep
  | Monitoring -> t.monitoring <- keep);
  if gone <> [] then t.version <- t.version + 1;
  List.length gone

let find t region ~pattern =
  List.find_opt
    (fun e -> Filter.equal e.rule.pattern pattern)
    (region_rules t region)

let lookup t tuple =
  let best rules =
    List.find_opt (fun e -> Filter.matches e.rule.pattern tuple) rules
  in
  match best t.forwarding with
  | Some e -> (
      (* a higher-priority monitoring rule can still win *)
      match best t.monitoring with
      | Some m when m.rule.priority > e.rule.priority -> Some m
      | Some _ | None -> Some e)
  | None -> best t.monitoring

let matching t tuple =
  let hits rules =
    List.filter_map
      (fun e ->
        if Filter.matches e.rule.pattern tuple then Some e.counters else None)
      rules
  in
  Array.of_list (hits t.forwarding @ hits t.monitoring)

let rules t region = region_rules t region
