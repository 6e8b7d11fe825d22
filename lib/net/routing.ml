type path = int list

(* Enumeration stops at this many shortest paths per pair. *)
let max_paths = 64

(* BFS from dst computing distance, then enumerate shortest paths from src
   by walking strictly-decreasing distances. *)
let shortest_paths topo ~src ~dst =
  let n = Topology.node_count topo in
  if src < 0 || src >= n || dst < 0 || dst >= n then []
  else begin
    let dist = Array.make n max_int in
    dist.(dst) <- 0;
    let q = Queue.create () in
    Queue.add dst q;
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      List.iter
        (fun v ->
          if dist.(v) = max_int then begin
            dist.(v) <- dist.(u) + 1;
            Queue.add v q
          end)
        (Topology.neighbors topo u)
    done;
    if dist.(src) = max_int then []
    else begin
      let acc = ref [] in
      let count = ref 0 in
      let rec walk node prefix =
        if !count < max_paths then
          if node = dst then begin
            acc := List.rev (dst :: prefix) :: !acc;
            incr count
          end
          else
            List.iter
              (fun v ->
                if dist.(v) = dist.(node) - 1 then walk v (node :: prefix))
              (Topology.neighbors topo node)
      in
      walk src [];
      List.rev !acc
    end
  end

let tuple_hash (t : Flow.five_tuple) =
  let h = Hashtbl.hash (Ipaddr.to_int t.src, Ipaddr.to_int t.dst, t.sport,
                        t.dport, t.proto) in
  abs h

let route_flow topo tuple =
  match
    ( Topology.host_of_addr topo tuple.Flow.src,
      Topology.host_of_addr topo tuple.Flow.dst )
  with
  | Some s, Some d -> (
      match shortest_paths topo ~src:s ~dst:d with
      | [] -> None
      | paths ->
          let k = tuple_hash tuple mod List.length paths in
          Some (List.nth paths k))
  | _ -> None

(* Three-valued filter evaluation under src/dst prefix constraints.
   Returns (certainly_true, possibly_true). *)
let rec eval3 f ~src ~dst =
  match f with
  | Filter.True -> (true, true)
  | Filter.False -> (false, false)
  | Filter.Atom a -> (
      match a with
      | Filter.Src_ip p ->
          (Ipaddr.Prefix.subset src p, Ipaddr.Prefix.overlap src p)
      | Filter.Dst_ip p ->
          (Ipaddr.Prefix.subset dst p, Ipaddr.Prefix.overlap dst p)
      | Filter.Src_port _ | Filter.Dst_port _ | Filter.Port _
      | Filter.Proto _ ->
          (false, true)  (* ports/protocols unconstrained by host prefixes *)
      | Filter.Any -> (true, true))
  | Filter.And (a, b) ->
      let ca, pa = eval3 a ~src ~dst and cb, pb = eval3 b ~src ~dst in
      (ca && cb, pa && pb)
  | Filter.Or (a, b) ->
      let ca, pa = eval3 a ~src ~dst and cb, pb = eval3 b ~src ~dst in
      (ca || cb, pa || pb)
  | Filter.Not a ->
      let c, p = eval3 a ~src ~dst in
      (not p, not c)

let satisfiable f ~src ~dst = snd (eval3 f ~src ~dst)

let paths_matching topo f =
  let hosts = Topology.hosts topo in
  let pairs =
    List.concat_map
      (fun (h1 : Topology.node) ->
        List.filter_map
          (fun (h2 : Topology.node) ->
            if h1.id = h2.id then None
            else
              match (h1.prefix, h2.prefix) with
              | Some p1, Some p2 when satisfiable f ~src:p1 ~dst:p2 ->
                  Some (h1.id, h2.id)
              | _ -> None)
          hosts)
      hosts
  in
  List.concat_map
    (fun (s, d) -> shortest_paths topo ~src:s ~dst:d)
    pairs

let path_switches topo p = List.filter (Topology.is_switch topo) p

