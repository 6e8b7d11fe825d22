type kind = Switch | Host

type node = {
  id : int;
  kind : kind;
  name : string;
  prefix : Ipaddr.Prefix.t option;
}

type t = {
  mutable node_list : node list;  (* reversed *)
  mutable count : int;
  byid : (int, node) Hashtbl.t;
  (* adjacency: per node, its neighbors; insertion order defines port
     numbering *)
  adj : (int, int list ref) Hashtbl.t;
  (* administratively/physically down links, keyed (min, max); ports keep
     their numbering, only reachability changes *)
  down : (int * int, unit) Hashtbl.t;
}

let empty () =
  { node_list = []; count = 0; byid = Hashtbl.create 64;
    adj = Hashtbl.create 64; down = Hashtbl.create 16 }

let link_key a b = if a <= b then (a, b) else (b, a)

let add_node t kind name prefix =
  let id = t.count in
  let n = { id; kind; name; prefix } in
  t.node_list <- n :: t.node_list;
  t.count <- t.count + 1;
  Hashtbl.replace t.byid id n;
  Hashtbl.replace t.adj id (ref []);
  id

let add_switch t name = add_node t Switch name None
let add_host t name prefix = add_node t Host name (Some prefix)

let adj t id =
  match Hashtbl.find_opt t.adj id with
  | Some l -> l
  | None -> invalid_arg (Printf.sprintf "Topology: unknown node %d" id)

let add_link t a b =
  let la = adj t a and lb = adj t b in
  la := !la @ [ b ];
  lb := !lb @ [ a ]

let node t id =
  match Hashtbl.find_opt t.byid id with
  | Some n -> n
  | None -> invalid_arg (Printf.sprintf "Topology.node: unknown node %d" id)

let node_count t = t.count
let nodes t = List.rev t.node_list
let switches t = List.filter (fun n -> n.kind = Switch) (nodes t)
let hosts t = List.filter (fun n -> n.kind = Host) (nodes t)
let switch_ids t = List.map (fun n -> n.id) (switches t)

let is_switch t id = (node t id).kind = Switch

let has_link t a b =
  Hashtbl.mem t.adj a && List.mem b !(adj t a)

let set_link_state t a b ~up =
  if not (has_link t a b) then
    invalid_arg (Printf.sprintf "Topology.set_link_state: no link %d-%d" a b);
  if up then Hashtbl.remove t.down (link_key a b)
  else Hashtbl.replace t.down (link_key a b) ()

let link_is_up t a b = has_link t a b && not (Hashtbl.mem t.down (link_key a b))

let neighbors t id =
  List.filter_map
    (fun n -> if Hashtbl.mem t.down (link_key id n) then None else Some n)
    !(adj t id)

let port_count t id = List.length !(adj t id)

let links t =
  List.concat_map
    (fun n ->
      List.filter_map
        (fun b -> if n.id < b then Some (n.id, b) else None)
        !(adj t n.id))
    (nodes t)
  |> List.sort compare

let switch_links t =
  List.filter (fun (a, b) -> is_switch t a && is_switch t b) (links t)

let port_to t a b =
  let rec go i = function
    | [] -> raise Not_found
    | n :: _ when n = b -> i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 !(adj t a)

let host_of_addr t addr =
  List.find_opt
    (fun n ->
      match n.prefix with
      | Some p -> Ipaddr.Prefix.mem addr p
      | None -> false)
    (hosts t)
  |> Option.map (fun n -> n.id)

let spine_leaf ~spines ~leaves ~hosts_per_leaf =
  if spines <= 0 || leaves <= 0 || hosts_per_leaf < 0 then
    invalid_arg "Topology.spine_leaf: all sizes must be positive";
  let t = empty () in
  let spine_ids =
    List.init spines (fun i -> add_switch t (Printf.sprintf "spine%d" i))
  in
  for l = 0 to leaves - 1 do
    let leaf = add_switch t (Printf.sprintf "leaf%d" l) in
    List.iter (fun s -> add_link t leaf s) spine_ids;
    for h = 0 to hosts_per_leaf - 1 do
      let prefix =
        Ipaddr.Prefix.make (Ipaddr.make 10 (l + 1) (h + 1) 0) 24
      in
      let host = add_host t (Printf.sprintf "host%d_%d" l h) prefix in
      add_link t leaf host
    done
  done;
  t

let fat_tree ~k =
  if k <= 0 || k mod 2 <> 0 then
    invalid_arg "Topology.fat_tree: k must be positive and even";
  let t = empty () in
  let half = k / 2 in
  let cores =
    List.init (half * half) (fun i -> add_switch t (Printf.sprintf "core%d" i))
  in
  let core = Array.of_list cores in
  for pod = 0 to k - 1 do
    let aggs =
      Array.init half (fun i -> add_switch t (Printf.sprintf "agg%d_%d" pod i))
    in
    let edges =
      Array.init half (fun i -> add_switch t (Printf.sprintf "edge%d_%d" pod i))
    in
    (* aggregation i connects to cores [i*half .. i*half+half-1] *)
    Array.iteri
      (fun i agg ->
        for j = 0 to half - 1 do
          add_link t agg core.((i * half) + j)
        done)
      aggs;
    Array.iter
      (fun edge -> Array.iter (fun agg -> add_link t edge agg) aggs)
      edges;
    Array.iteri
      (fun e edge ->
        for h = 0 to half - 1 do
          let prefix =
            Ipaddr.Prefix.make
              (Ipaddr.make 10 (pod + 1) ((e * half) + h + 1) 0)
              24
          in
          let host =
            add_host t (Printf.sprintf "host%d_%d_%d" pod e h) prefix
          in
          add_link t edge host
        done)
      edges
  done;
  t

let linear ~n =
  if n <= 0 then invalid_arg "Topology.linear: n must be positive";
  let t = empty () in
  let sw = Array.init n (fun i -> add_switch t (Printf.sprintf "s%d" i)) in
  for i = 0 to n - 2 do
    add_link t sw.(i) sw.(i + 1)
  done;
  let h0 =
    add_host t "hostA" (Ipaddr.Prefix.make (Ipaddr.make 10 1 1 0) 24)
  in
  let h1 =
    add_host t "hostB" (Ipaddr.Prefix.make (Ipaddr.make 10 2 1 0) 24)
  in
  add_link t h0 sw.(0);
  add_link t h1 sw.(n - 1);
  t
