(* Tests for the network substrate: addresses, filters, TCAM, topology,
   routing, switch model, fabric and traffic generation. *)

open Farm_net
module Engine = Farm_sim.Engine
module Rng = Farm_sim.Rng

let check_float = Alcotest.(check (float 1e-6))

(* ------------------------------------------------------------------ *)
(* Ipaddr                                                              *)
(* ------------------------------------------------------------------ *)

let test_ip_roundtrip () =
  List.iter
    (fun s ->
      Alcotest.(check string) s s (Ipaddr.to_string (Ipaddr.of_string s)))
    [ "0.0.0.0"; "10.1.1.4"; "255.255.255.255"; "192.168.0.1" ]

let test_ip_invalid () =
  List.iter
    (fun s ->
      Alcotest.(check (option reject)) s None
        (Option.map ignore (Ipaddr.of_string_opt s)))
    [ ""; "10.1.1"; "10.1.1.256"; "a.b.c.d"; "10.1.1.1.1"; "-1.0.0.0" ]

let test_prefix_mem () =
  let p = Ipaddr.Prefix.of_string "10.0.1.0/24" in
  Alcotest.(check bool) "inside" true
    (Ipaddr.Prefix.mem (Ipaddr.of_string "10.0.1.77") p);
  Alcotest.(check bool) "outside" false
    (Ipaddr.Prefix.mem (Ipaddr.of_string "10.0.2.1") p);
  let all = Ipaddr.Prefix.of_string "0.0.0.0/0" in
  Alcotest.(check bool) "default route matches everything" true
    (Ipaddr.Prefix.mem (Ipaddr.of_string "203.0.113.9") all)

let test_prefix_subset_overlap () =
  let p24 = Ipaddr.Prefix.of_string "10.0.1.0/24" in
  let p16 = Ipaddr.Prefix.of_string "10.0.0.0/16" in
  let q24 = Ipaddr.Prefix.of_string "10.1.0.0/24" in
  Alcotest.(check bool) "24 subset of 16" true (Ipaddr.Prefix.subset p24 p16);
  Alcotest.(check bool) "16 not subset of 24" false
    (Ipaddr.Prefix.subset p16 p24);
  Alcotest.(check bool) "overlap up" true (Ipaddr.Prefix.overlap p24 p16);
  Alcotest.(check bool) "disjoint" false (Ipaddr.Prefix.overlap p24 q24)

let test_prefix_normalizes () =
  let p = Ipaddr.Prefix.make (Ipaddr.of_string "10.0.1.99") 24 in
  Alcotest.(check string) "host bits zeroed" "10.0.1.0/24"
    (Ipaddr.Prefix.to_string p)

let prop_prefix_member_of_own_prefix =
  QCheck2.Test.make ~name:"address is member of its own /len prefix" ~count:200
    QCheck2.Gen.(pair (int_bound 0xFFFFFF) (int_range 0 32))
    (fun (base, len) ->
      let addr = Ipaddr.of_int (base * 97) in
      Ipaddr.Prefix.mem addr (Ipaddr.Prefix.make addr len))

(* ------------------------------------------------------------------ *)
(* Filter                                                              *)
(* ------------------------------------------------------------------ *)

let tup ?(src = "10.1.1.4") ?(dst = "10.0.1.9") ?(sport = 1234) ?(dport = 80)
    ?(proto = Flow.Tcp) () =
  { Flow.src = Ipaddr.of_string src; dst = Ipaddr.of_string dst; sport;
    dport; proto }

let test_filter_atoms () =
  let t = tup () in
  let open Filter in
  Alcotest.(check bool) "src ip" true
    (matches (atom (Src_ip (Ipaddr.Prefix.of_string "10.1.0.0/16"))) t);
  Alcotest.(check bool) "dst ip miss" false
    (matches (atom (Dst_ip (Ipaddr.Prefix.of_string "10.1.0.0/16"))) t);
  Alcotest.(check bool) "dport" true (matches (atom (Dst_port 80)) t);
  Alcotest.(check bool) "port either" true (matches (atom (Port 1234)) t);
  Alcotest.(check bool) "proto" true (matches (atom (Proto Flow.Tcp)) t);
  Alcotest.(check bool) "any" true (matches (atom Any) t)

let test_filter_boolean () =
  let t = tup () in
  let open Filter in
  let f = atom (Dst_port 80) &&& atom (Proto Flow.Tcp) in
  Alcotest.(check bool) "and" true (matches f t);
  Alcotest.(check bool) "and with not" false (matches (f &&& Not f) t);
  Alcotest.(check bool) "or" true (matches (False ||| f) t);
  Alcotest.(check bool) "not" false (matches (Not f) t)

let test_filter_subjects () =
  let open Filter in
  let f =
    atom (Src_ip (Ipaddr.Prefix.of_string "10.1.0.0/16"))
    &&& (atom (Dst_port 80) ||| atom (Proto Flow.Udp))
  in
  let subjects = subjects f in
  Alcotest.(check int) "three subjects" 3 (List.length subjects);
  Alcotest.(check bool) "port subject present" true
    (List.exists (subject_equal (Port_counter 80)) subjects);
  (* duplicates are collapsed *)
  let f2 = atom (Dst_port 80) &&& atom (Src_port 80) in
  Alcotest.(check int) "dedup" 1 (List.length (Filter.subjects f2))

let prop_filter_demorgan =
  let gen_filter =
    let open QCheck2.Gen in
    let atom_gen =
      oneof
        [ return (Filter.atom Filter.Any);
          map (fun p -> Filter.atom (Filter.Dst_port p)) (int_range 1 100);
          map (fun p -> Filter.atom (Filter.Src_port p)) (int_range 1 100);
          return (Filter.atom (Filter.Proto Flow.Tcp)) ]
    in
    let rec go depth =
      if depth = 0 then atom_gen
      else
        oneof
          [ atom_gen;
            map2 (fun a b -> Filter.And (a, b)) (go (depth - 1)) (go (depth - 1));
            map2 (fun a b -> Filter.Or (a, b)) (go (depth - 1)) (go (depth - 1));
            map (fun a -> Filter.Not a) (go (depth - 1)) ]
    in
    go 3
  in
  QCheck2.Test.make ~name:"De Morgan: !(a&&b) == !a || !b" ~count:200
    QCheck2.Gen.(triple gen_filter gen_filter (int_range 1 100))
    (fun (a, b, port) ->
      let t = tup ~dport:port () in
      Filter.matches (Filter.Not (Filter.And (a, b))) t
      = Filter.matches (Filter.Or (Filter.Not a, Filter.Not b)) t)

(* ------------------------------------------------------------------ *)
(* Tcam                                                                *)
(* ------------------------------------------------------------------ *)

let test_tcam_partition () =
  let t = Tcam.create ~monitoring_share:0.25 ~capacity:100 () in
  Alcotest.(check int) "monitoring region" 25
    (Tcam.region_capacity t Tcam.Monitoring);
  Alcotest.(check int) "forwarding region" 75
    (Tcam.region_capacity t Tcam.Forwarding);
  (* fill monitoring region *)
  for i = 1 to 25 do
    match
      Tcam.add t Tcam.Monitoring
        { pattern = Filter.atom (Filter.Dst_port i); action = Tcam.Count;
          priority = 0 }
    with
    | Ok _ -> ()
    | Error `Full -> Alcotest.fail "should fit"
  done;
  (match
     Tcam.add t Tcam.Monitoring
       { pattern = Filter.True; action = Tcam.Count; priority = 0 }
   with
  | Error `Full -> ()
  | Ok _ -> Alcotest.fail "monitoring region must be full");
  (* forwarding region is unaffected: monitoring cannot evict forwarding *)
  (match
     Tcam.add t Tcam.Forwarding
       { pattern = Filter.True; action = Tcam.Forward 1; priority = 0 }
   with
  | Ok _ -> ()
  | Error `Full -> Alcotest.fail "forwarding region must be unaffected")

let test_tcam_priority_lookup () =
  let t = Tcam.create ~capacity:100 () in
  let r1 =
    { Tcam.pattern = Filter.atom (Filter.Dst_port 80); action = Tcam.Drop;
      priority = 10 }
  in
  let r2 = { Tcam.pattern = Filter.True; action = Tcam.Forward 1; priority = 1 } in
  (match Tcam.add t Tcam.Forwarding r2 with Ok _ -> () | Error `Full -> assert false);
  (match Tcam.add t Tcam.Forwarding r1 with Ok _ -> () | Error `Full -> assert false);
  (match Tcam.lookup t (tup ~dport:80 ()) with
  | Some e -> Alcotest.(check bool) "high priority wins" true (e.rule.action = Tcam.Drop)
  | None -> Alcotest.fail "must match");
  match Tcam.lookup t (tup ~dport:443 ()) with
  | Some e ->
      Alcotest.(check bool) "fallback rule" true (e.rule.action = Tcam.Forward 1)
  | None -> Alcotest.fail "must match catch-all"

(* Reference accounting: the per-flow rule scan the switch model ran
   before it kept each flow's matches.  [bytes] of the tuple's traffic go
   to every rule the tuple matches, forwarding region first, each region
   in priority order. *)
let record t tuple ~bytes =
  let touch (e : Tcam.installed) =
    if Filter.matches e.rule.pattern tuple then begin
      let c = e.counters in
      c.bytes <- c.bytes +. bytes;
      (* ~1000 B/packet, at least one packet per recorded burst *)
      c.packets <- c.packets +. Float.max 1. (bytes /. 1000.)
    end
  in
  List.iter touch (Tcam.rules t Tcam.Forwarding);
  List.iter touch (Tcam.rules t Tcam.Monitoring)

let test_tcam_counters_and_remove () =
  let t = Tcam.create ~capacity:10 () in
  let pat = Filter.atom (Filter.Dst_port 80) in
  let entry =
    match
      Tcam.add t Tcam.Monitoring { pattern = pat; action = Tcam.Count; priority = 0 }
    with
    | Ok e -> e
    | Error `Full -> assert false
  in
  (match Tcam.matching t (tup ~dport:80 ()) with
  | [| c |] -> Alcotest.(check bool) "matches the rule" true (c == entry.counters)
  | _ -> Alcotest.fail "port-80 tuple must match the rule alone");
  Alcotest.(check int) "no match" 0
    (Array.length (Tcam.matching t (tup ~dport:443 ())));
  record t (tup ~dport:80 ()) ~bytes:500.;
  record t (tup ~dport:443 ()) ~bytes:999.;
  check_float "bytes counted" 500. (Tcam.bytes entry);
  check_float "one packet" 1. (Tcam.packets entry);
  let v = Tcam.version t in
  Alcotest.(check int) "removed" 1 (Tcam.remove t Tcam.Monitoring ~pattern:pat);
  Alcotest.(check bool) "remove bumps the version" true (Tcam.version t > v);
  Alcotest.(check int) "idempotent remove" 0
    (Tcam.remove t Tcam.Monitoring ~pattern:pat);
  Alcotest.(check int) "region empty" 0 (Tcam.region_used t Tcam.Monitoring)

(* ------------------------------------------------------------------ *)
(* Topology & Routing                                                  *)
(* ------------------------------------------------------------------ *)

let test_spine_leaf_shape () =
  let t = Topology.spine_leaf ~spines:2 ~leaves:4 ~hosts_per_leaf:3 in
  Alcotest.(check int) "switch count" 6 (List.length (Topology.switches t));
  Alcotest.(check int) "host count" 12 (List.length (Topology.hosts t));
  (* each leaf has 2 spines + 3 hosts = 5 ports; spine has 4 *)
  let leaf =
    List.find (fun (n : Topology.node) -> n.name = "leaf0") (Topology.nodes t)
  in
  Alcotest.(check int) "leaf degree" 5 (Topology.port_count t leaf.id);
  let spine =
    List.find (fun (n : Topology.node) -> n.name = "spine0") (Topology.nodes t)
  in
  Alcotest.(check int) "spine degree" 4 (Topology.port_count t spine.id)

let test_fat_tree_shape () =
  let t = Topology.fat_tree ~k:4 in
  (* k=4: 4 cores + 8 agg + 8 edge = 20 switches, 16 hosts *)
  Alcotest.(check int) "switches" 20 (List.length (Topology.switches t));
  Alcotest.(check int) "hosts" 16 (List.length (Topology.hosts t))

let test_host_of_addr () =
  let t = Topology.spine_leaf ~spines:2 ~leaves:2 ~hosts_per_leaf:2 in
  match Topology.host_of_addr t (Ipaddr.of_string "10.1.2.7") with
  | Some id ->
      Alcotest.(check string) "right host" "host0_1" (Topology.node t id).name
  | None -> Alcotest.fail "host must be found"

let test_shortest_paths_spine_leaf () =
  let t = Topology.spine_leaf ~spines:3 ~leaves:2 ~hosts_per_leaf:1 in
  let h0 = Option.get (Topology.host_of_addr t (Ipaddr.of_string "10.1.1.1")) in
  let h1 = Option.get (Topology.host_of_addr t (Ipaddr.of_string "10.2.1.1")) in
  let paths = Routing.shortest_paths t ~src:h0 ~dst:h1 in
  (* host - leaf - spine - leaf - host: one path per spine *)
  Alcotest.(check int) "ECMP over 3 spines" 3 (List.length paths);
  List.iter
    (fun p ->
      Alcotest.(check int) "length 5" 5 (List.length p);
      Alcotest.(check int) "3 switches" 3
        (List.length (Routing.path_switches t p)))
    paths

let test_paths_same_leaf () =
  let t = Topology.spine_leaf ~spines:3 ~leaves:2 ~hosts_per_leaf:2 in
  let h0 = Option.get (Topology.host_of_addr t (Ipaddr.of_string "10.1.1.1")) in
  let h1 = Option.get (Topology.host_of_addr t (Ipaddr.of_string "10.1.2.1")) in
  let paths = Routing.shortest_paths t ~src:h0 ~dst:h1 in
  Alcotest.(check int) "single intra-leaf path" 1 (List.length paths);
  Alcotest.(check int) "one switch" 1
    (List.length (Routing.path_switches t (List.hd paths)))

let test_route_flow_deterministic () =
  let t = Topology.spine_leaf ~spines:4 ~leaves:3 ~hosts_per_leaf:2 in
  let tuple = tup ~src:"10.1.1.5" ~dst:"10.3.2.9" () in
  let p1 = Routing.route_flow t tuple in
  let p2 = Routing.route_flow t tuple in
  Alcotest.(check bool) "route exists" true (p1 <> None);
  Alcotest.(check bool) "ECMP deterministic per tuple" true (p1 = p2)

let test_paths_matching_filter () =
  let t = Topology.spine_leaf ~spines:2 ~leaves:2 ~hosts_per_leaf:2 in
  let f =
    Filter.(
      atom (Src_ip (Ipaddr.Prefix.of_string "10.1.1.0/24"))
      &&& atom (Dst_ip (Ipaddr.Prefix.of_string "10.2.0.0/16")))
  in
  let paths = Routing.paths_matching t f in
  Alcotest.(check bool) "some paths" true (List.length paths > 0);
  (* all paths start at host0_0 (prefix 10.1.1.0/24) *)
  List.iter
    (fun p ->
      let first = List.hd p in
      Alcotest.(check string) "src host" "host0_0" (Topology.node t first).name)
    paths

let test_satisfiable_three_valued () =
  let src = Ipaddr.Prefix.of_string "10.1.1.0/24" in
  let dst = Ipaddr.Prefix.of_string "10.2.1.0/24" in
  let open Filter in
  Alcotest.(check bool) "positive" true
    (Routing.satisfiable (atom (Src_ip (Ipaddr.Prefix.of_string "10.1.0.0/16")))
       ~src ~dst);
  Alcotest.(check bool) "negative" false
    (Routing.satisfiable (atom (Src_ip (Ipaddr.Prefix.of_string "10.9.0.0/16")))
       ~src ~dst);
  (* not (src in 10.9/16) is certainly true here *)
  Alcotest.(check bool) "negation of disjoint" true
    (Routing.satisfiable
       (Not (atom (Src_ip (Ipaddr.Prefix.of_string "10.9.0.0/16"))))
       ~src ~dst);
  (* not (src in 10.1.1/24) is certainly false: src prefix equals it *)
  Alcotest.(check bool) "negation of superset" false
    (Routing.satisfiable (Not (atom (Src_ip src))) ~src ~dst)

(* ------------------------------------------------------------------ *)
(* Switch_model                                                        *)
(* ------------------------------------------------------------------ *)

let test_switch_counters_integrate () =
  let sw = Switch_model.create ~id:0 ~ports:4 () in
  Switch_model.add_flow sw ~time:0. ~flow_id:1 ~tuple:(tup ()) ~rate:1000.
    ~egress:2 ();
  check_float "no bytes yet" 0. (Switch_model.port_bytes sw ~time:0. ~port:2);
  check_float "after 5s" 5000. (Switch_model.port_bytes sw ~time:5. ~port:2);
  Switch_model.remove_flow sw ~time:10. ~flow_id:1;
  check_float "stops accumulating" 10_000.
    (Switch_model.port_bytes sw ~time:20. ~port:2);
  check_float "other port untouched" 0.
    (Switch_model.port_bytes sw ~time:20. ~port:1)

let test_switch_subject_counters () =
  let sw = Switch_model.create ~id:0 ~ports:4 () in
  let subj = Filter.Port_counter 80 in
  Switch_model.watch_subject sw ~time:0. subj;
  Switch_model.add_flow sw ~time:0. ~flow_id:1 ~tuple:(tup ~dport:80 ())
    ~rate:100. ~egress:0 ();
  Switch_model.add_flow sw ~time:0. ~flow_id:2 ~tuple:(tup ~dport:443 ())
    ~rate:900. ~egress:0 ();
  check_float "only port-80 flow counted" 200.
    (Switch_model.subject_bytes sw ~time:2. subj);
  (* watching after flows exist picks up current rates *)
  let subj2 = Filter.Proto_counter Flow.Tcp in
  Switch_model.watch_subject sw ~time:2. subj2;
  check_float "late watch starts from zero" 0.
    (Switch_model.subject_bytes sw ~time:2. subj2);
  check_float "late watch accumulates both flows" 1000.
    (Switch_model.subject_bytes sw ~time:3. subj2)

let test_switch_tcam_reaction () =
  let sw = Switch_model.create ~id:0 ~ports:4 () in
  Switch_model.add_flow sw ~time:0. ~flow_id:1 ~tuple:(tup ~dport:80 ())
    ~rate:1000. ~egress:1 ();
  (* install a drop rule (a seed's local reaction) *)
  (match
     Switch_model.add_rule sw ~time:10. Tcam.Monitoring
       { pattern = Filter.atom (Filter.Dst_port 80); action = Tcam.Drop;
         priority = 5 }
   with
  | Ok _ -> ()
  | Error `Full -> assert false);
  check_float "pre-drop bytes" 10_000.
    (Switch_model.port_bytes sw ~time:10. ~port:1);
  check_float "flow quenched" 10_000.
    (Switch_model.port_bytes sw ~time:20. ~port:1);
  (* rate-limit instead of drop *)
  ignore (Switch_model.remove_rule sw ~time:20. Tcam.Monitoring
            ~pattern:(Filter.atom (Filter.Dst_port 80)));
  (match
     Switch_model.add_rule sw ~time:20. Tcam.Monitoring
       { pattern = Filter.atom (Filter.Dst_port 80);
         action = Tcam.Rate_limit 100.; priority = 5 }
   with
  | Ok _ -> ()
  | Error `Full -> assert false);
  check_float "rate limited" 11_000.
    (Switch_model.port_bytes sw ~time:30. ~port:1)

(* A rule counts traffic from its install on, and a removed rule keeps
   the traffic up to its removal: one 1000 B/s flow, polled at 1 s, a
   catch-all rule installed at 1.5 s and polled at 2 s (500 B, one
   packet), removed at 2.5 s (another 500 B and packet). *)
let test_switch_rule_lifetime () =
  let sw = Switch_model.create ~id:0 ~ports:2 () in
  Switch_model.add_flow sw ~time:0. ~flow_id:1 ~tuple:(tup ()) ~rate:1000.
    ~egress:0 ();
  ignore (Switch_model.poll_subject sw ~time:1. Filter.All_ports);
  let rule =
    match
      Switch_model.add_rule sw ~time:1.5 Tcam.Monitoring
        { pattern = Filter.True; action = Tcam.Count; priority = 10 }
    with
    | Ok e -> e
    | Error `Full -> assert false
  in
  ignore (Switch_model.poll_subject sw ~time:2. Filter.All_ports);
  Alcotest.(check (float 0.)) "bytes since install" 500. (Tcam.bytes rule);
  Alcotest.(check (float 0.)) "packets since install" 1. (Tcam.packets rule);
  Alcotest.(check int) "removed" 1
    (Switch_model.remove_rule sw ~time:2.5 Tcam.Monitoring
       ~pattern:Filter.True);
  ignore (Switch_model.poll_subject sw ~time:3. Filter.All_ports);
  Alcotest.(check (float 0.)) "bytes up to removal" 1000. (Tcam.bytes rule);
  Alcotest.(check (float 0.)) "packets up to removal" 2.
    (Tcam.packets rule);
  Alcotest.(check int) "absent pattern" 0
    (Switch_model.remove_rule sw ~time:3.5 Tcam.Monitoring
       ~pattern:Filter.True)

let test_switch_sampling () =
  let sw = Switch_model.create ~id:0 ~ports:2 () in
  let rng = Rng.create 17 in
  Alcotest.(check (option reject)) "idle switch yields nothing" None
    (Option.map ignore (Switch_model.sample_packet sw rng));
  Switch_model.add_flow sw ~time:0. ~flow_id:1 ~tuple:(tup ~dport:80 ())
    ~rate:9000. ~egress:0 ();
  Switch_model.add_flow sw ~time:0. ~flow_id:2 ~tuple:(tup ~dport:443 ())
    ~rate:1000. ~egress:0 ();
  let hits80 = ref 0 and total = 1000 in
  for _ = 1 to total do
    match Switch_model.sample_packet sw rng with
    | Some p -> if p.tuple.dport = 80 then incr hits80
    | None -> Alcotest.fail "busy switch must sample"
  done;
  (* 90% of rate belongs to the port-80 flow *)
  Alcotest.(check bool) "samples weighted by rate" true
    (!hits80 > 800 && !hits80 < 980)

(* Reference sampler: the linear walk [Switch_model.sample_packet] used
   before its binary search — flows in id order, the first flow with a
   positive rate whose running sum reaches the draw. *)
let walk_sample sw rng =
  let total = Switch_model.total_rate sw in
  if total <= 0. then None
  else begin
    let target = Rng.uniform rng 0. total in
    let rec walk acc = function
      | [] -> None
      | (f : Switch_model.active_flow) :: rest ->
          let acc = acc +. f.rate in
          if acc >= target && f.rate > 0. then
            Some (Flow.packet ~flags:f.flags ~payload:f.payload f.tuple 1000)
          else walk acc rest
    in
    walk 0. (Switch_model.active_flows sw)
  end

type sample_op =
  | Add of int * float * int  (* flow id, rate, dport *)
  | Remove of int
  | Rule of int * Tcam.action  (* monitoring rule on a dport *)
  | Unrule of int
  | Surge of float
  | Sample of int

(* Flow rates: zero, tiny, integral, and up to 1 TB/s *)
let gen_rate =
  let open QCheck2.Gen in
  oneof
    [ return 0.; return 1e-9; map float_of_int (int_range 1 10_000);
      float_range 0. 1e6; map (fun x -> x *. 1e12) (float_range 0. 1.) ]

let gen_sample_ops =
  let open QCheck2.Gen in
  let op =
    frequency
      [ (5, map3 (fun id r p -> Add (id, r, p)) (int_bound 15) gen_rate
              (int_range 1 4));
        (3, map (fun id -> Remove id) (int_bound 15));
        (1, map (fun p -> Rule (p, Tcam.Drop)) (int_range 1 4));
        (1, map2 (fun p cap -> Rule (p, Tcam.Rate_limit cap)) (int_range 1 4)
              (float_range 0. 5_000.));
        (1, map (fun p -> Unrule p) (int_range 1 4));
        (1, map (fun f -> Surge f) (oneofl [ 0.5; 1.; 2.; 3.7 ]));
        (4, map (fun n -> Sample n) (int_range 1 8)) ]
  in
  pair (int_bound 1_000_000) (list_size (int_range 0 40) op)

let prop_sample_matches_walk =
  QCheck2.Test.make ~name:"sample_packet = linear walk, same rng" ~count:300
    gen_sample_ops (fun (seed, ops) ->
      let sw = Switch_model.create ~id:0 ~ports:2 () in
      let rng = Rng.create seed and ref_rng = Rng.create seed in
      let pattern p = Filter.atom (Filter.Dst_port p) in
      let time = ref 0. in
      List.for_all
        (fun op ->
          time := !time +. 0.1;
          let time = !time in
          match op with
          | Add (id, rate, dport) ->
              (* sport names the flow, so equal packets mean equal flows *)
              Switch_model.add_flow sw ~time ~flow_id:id
                ~tuple:(tup ~sport:(1000 + id) ~dport ()) ~rate ~egress:0 ();
              true
          | Remove id ->
              Switch_model.remove_flow sw ~time ~flow_id:id;
              true
          | Rule (p, action) ->
              ignore
                (Switch_model.add_rule sw ~time Tcam.Monitoring
                   { pattern = pattern p; action; priority = p });
              true
          | Unrule p ->
              ignore
                (Switch_model.remove_rule sw ~time Tcam.Monitoring
                   ~pattern:(pattern p));
              true
          | Surge f ->
              Switch_model.set_surge sw ~time f;
              true
          | Sample n ->
              List.for_all
                (fun _ ->
                  Switch_model.sample_packet sw rng = walk_sample sw ref_rng)
                (List.init n Fun.id))
        ops)

module Int_map = Map.Make (Int)

type store_op =
  | New of float  (* the next rising id, as [Fabric] hands them out *)
  | Gone of int  (* any id issued so far, active or not *)
  | Back of int * float  (* re-install an issued id: a reroute *)

(* The switch's flow store under fresh ids, removals and re-installs of
   old ids keeps the flows strictly sorted by id, and they are exactly the
   bindings of a map from id to the last install. *)
let prop_flow_store_sorted =
  let gen =
    let open QCheck2.Gen in
    list_size (int_range 0 80)
      (frequency
         [ (4, map (fun r -> New r) gen_rate);
           (3, map (fun k -> Gone k) nat);
           (2, map2 (fun k r -> Back (k, r)) nat gen_rate) ])
  in
  QCheck2.Test.make ~name:"flow store = id-ordered map" ~count:300 gen
    (fun ops ->
      let sw = Switch_model.create ~id:0 ~ports:2 () in
      let issued = ref 0 and time = ref 0. in
      let install reference id rate =
        Switch_model.add_flow sw ~time:!time ~flow_id:id
          ~tuple:(tup ~sport:(1000 + id) ()) ~rate ~egress:(id mod 2) ();
        Int_map.add id rate reference
      in
      let old k = k mod Stdlib.max 1 !issued in
      List.fold_left
        (fun (ok, reference) op ->
          time := !time +. 0.1;
          let reference =
            match op with
            | New rate ->
                let id = !issued in
                incr issued;
                install reference id rate
            | Gone k ->
                let id = old k in
                Switch_model.remove_flow sw ~time:!time ~flow_id:id;
                Int_map.remove id reference
            | Back (k, rate) -> install reference (old k) rate
          in
          let ids =
            List.map
              (fun (f : Switch_model.active_flow) -> f.flow_id)
              (Switch_model.active_flows sw)
          in
          let rec strictly = function
            | a :: (b :: _ as rest) -> a < b && strictly rest
            | [ _ ] | [] -> true
          in
          let bindings =
            List.map
              (fun (f : Switch_model.active_flow) ->
                (f.flow_id, f.base_rate))
              (Switch_model.active_flows sw)
          in
          ( ok && strictly ids && bindings = Int_map.bindings reference,
            reference ))
        (true, Int_map.empty) ops
      |> fst)

(* Reference switch accounting: the model as it was before it kept each
   flow's matching rules.  Every sync re-matches each active flow against
   every installed rule ([record]).  Rates follow the same TCAM actions
   and port rates the same accumulation order as [Switch_model]; rule
   changes settle the counters first. *)
module Ref_switch = struct
  type flow = {
    tuple : Flow.five_tuple;
    base : float;
    mutable rate : float;
    egress : int;
  }

  type t = {
    tcam : Tcam.t;
    flows : (int, flow) Hashtbl.t;
    p_rate : float array;
    p_bytes : float array;
    mutable last : float;
    mutable surge : float;
  }

  let create ~capacity ~ports =
    { tcam = Tcam.create ~capacity (); flows = Hashtbl.create 32;
      p_rate = Array.make ports 0.; p_bytes = Array.make ports 0.;
      last = 0.; surge = 1. }

  (* [f] on every flow in id order, the order the switch defines *)
  let iter_by_id r f =
    Hashtbl.fold (fun id fl acc -> (id, fl) :: acc) r.flows []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    |> List.iter (fun (_, fl) -> f fl)

  let sync r ~time =
    let dt = time -. r.last in
    if dt > 0. then begin
      Array.iteri
        (fun i rate -> r.p_bytes.(i) <- r.p_bytes.(i) +. (rate *. dt))
        r.p_rate;
      iter_by_id r (fun f ->
          if f.rate > 0. then record r.tcam f.tuple ~bytes:(f.rate *. dt));
      r.last <- time
    end

  let effective_rate r f =
    let base = if r.surge = 1. then f.base else f.base *. r.surge in
    match Tcam.lookup r.tcam f.tuple with
    | Some { rule = { action = Tcam.Drop; _ }; _ } -> 0.
    | Some { rule = { action = Tcam.Rate_limit cap; _ }; _ } ->
        Float.min base cap
    | Some _ | None -> base

  let rate_delta r f delta =
    r.p_rate.(f.egress) <- r.p_rate.(f.egress) +. delta

  let rerate r f =
    let rate = effective_rate r f in
    if rate <> f.rate then begin
      rate_delta r f (rate -. f.rate);
      f.rate <- rate
    end

  let add_flow r ~time ~flow_id ~tuple ~rate ~egress =
    sync r ~time;
    let f = { tuple; base = rate; rate; egress } in
    f.rate <- effective_rate r f;
    Hashtbl.replace r.flows flow_id f;
    rate_delta r f f.rate

  let remove_flow r ~time ~flow_id =
    sync r ~time;
    match Hashtbl.find_opt r.flows flow_id with
    | None -> ()
    | Some f ->
        rate_delta r f (-.f.rate);
        Hashtbl.remove r.flows flow_id

  let add_rule r ~time region rule =
    if Tcam.free r.tcam region <= 0 then Error `Full
    else begin
      sync r ~time;
      let added = Tcam.add r.tcam region rule in
      iter_by_id r (rerate r);
      added
    end

  let remove_rule r ~time region ~pattern =
    match Tcam.find r.tcam region ~pattern with
    | None -> 0
    | Some _ ->
        sync r ~time;
        let n = Tcam.remove r.tcam region ~pattern in
        iter_by_id r (rerate r);
        n

  let set_surge r ~time factor =
    if factor <> r.surge then begin
      sync r ~time;
      r.surge <- factor;
      iter_by_id r (rerate r)
    end
end

type acct_op =
  | A_flow of int * float * int * int  (* flow id, rate, dport, egress *)
  | A_unflow of int
  | A_rule of bool * Tcam.region * Tcam.rule
      (* through [add_rule], or straight into the TCAM (no settling) *)
  | A_unrule of Tcam.region * Filter.t
  | A_surge of float
  | A_poll

let gen_acct_ops =
  let open QCheck2.Gen in
  let region =
    map (fun b -> if b then Tcam.Forwarding else Tcam.Monitoring) bool
  in
  let pattern =
    oneof
      [ return Filter.True;
        map (fun p -> Filter.atom (Filter.Dst_port p)) (int_range 1 4) ]
  in
  let action =
    oneof
      [ return Tcam.Count; return Tcam.Drop; return (Tcam.Forward 1);
        map (fun cap -> Tcam.Rate_limit cap) (float_range 0. 5_000.) ]
  in
  let rule =
    map3 (fun pattern action priority -> { Tcam.pattern; action; priority })
      pattern action (int_range 0 3)
  in
  let op =
    frequency
      [ (5, map (fun ((id, r), (p, e)) -> A_flow (id, r, p, e))
              (pair (pair (int_bound 11) gen_rate)
                 (pair (int_range 1 4) (int_bound 1))));
        (2, map (fun id -> A_unflow id) (int_bound 11));
        (3, map3 (fun managed region rule -> A_rule (managed, region, rule))
              bool region rule);
        (2, map2 (fun r p -> A_unrule (r, p)) region pattern);
        (1, map (fun f -> A_surge f) (oneofl [ 0.5; 1.; 2.; 3.7 ]));
        (4, return A_poll) ]
  in
  list_size (int_range 0 60)
    (pair (oneof [ return 0.; float_range 0. 2. ]) op)

(* Random flow, rule, surge and poll sequences, with an 8-entry TCAM (two
   monitoring entries) so both regions fill up.  After every step each
   rule ever installed, removed ones included, holds the same bits as in
   the reference; polls return the same port bytes.  No digest reads rule
   counters, so this property is what pins their accounting. *)
let prop_accounting_matches_scan =
  QCheck2.Test.make ~name:"rule counters = per-flow rule scan, bit for bit"
    ~count:300 gen_acct_ops (fun ops ->
      let caps = { Switch_model.accton_as5712 with tcam_entries = 8 } in
      let sw = Switch_model.create ~caps ~id:0 ~ports:2 () in
      let r = Ref_switch.create ~capacity:8 ~ports:2 in
      let bits = Int64.bits_of_float in
      let installed = ref [] in
      let same (a : Tcam.installed) (b : Tcam.installed) =
        a.id = b.id
        && bits (Tcam.bytes a) = bits (Tcam.bytes b)
        && bits (Tcam.packets a) = bits (Tcam.packets b)
      in
      let ids region tcam =
        List.map (fun (e : Tcam.installed) -> e.id) (Tcam.rules tcam region)
      in
      let same_rules region =
        ids region (Switch_model.tcam sw) = ids region r.tcam
      in
      let time = ref 0. in
      List.for_all
        (fun (dt, op) ->
          time := !time +. dt;
          let time = !time in
          let polls_agree =
            match op with
            | A_flow (id, rate, dport, egress) ->
                let tuple = tup ~sport:(1000 + id) ~dport () in
                Switch_model.add_flow sw ~time ~flow_id:id ~tuple ~rate
                  ~egress ();
                Ref_switch.add_flow r ~time ~flow_id:id ~tuple ~rate ~egress;
                true
            | A_unflow id ->
                Switch_model.remove_flow sw ~time ~flow_id:id;
                Ref_switch.remove_flow r ~time ~flow_id:id;
                true
            | A_rule (managed, region, rule) -> (
                let added =
                  if managed then
                    ( Switch_model.add_rule sw ~time region rule,
                      Ref_switch.add_rule r ~time region rule )
                  else
                    ( Tcam.add (Switch_model.tcam sw) region rule,
                      Tcam.add r.tcam region rule )
                in
                match added with
                | Ok a, Ok b ->
                    installed := (a, b) :: !installed;
                    true
                | Error `Full, Error `Full -> true
                | Ok _, Error _ | Error _, Ok _ -> false)
            | A_unrule (region, pattern) ->
                let n = Switch_model.remove_rule sw ~time region ~pattern in
                n = Ref_switch.remove_rule r ~time region ~pattern
            | A_surge f ->
                Switch_model.set_surge sw ~time f;
                Ref_switch.set_surge r ~time f;
                true
            | A_poll ->
                let polled =
                  Switch_model.poll_subject sw ~time Filter.All_ports
                in
                Ref_switch.sync r ~time;
                Array.for_all2 (fun a b -> bits a = bits b) polled r.p_bytes
          in
          polls_agree
          && same_rules Tcam.Forwarding && same_rules Tcam.Monitoring
          && List.for_all (fun (a, b) -> same a b) !installed)
        ops)

(* ------------------------------------------------------------------ *)
(* Fabric & Traffic                                                    *)
(* ------------------------------------------------------------------ *)

let test_fabric_flow_accounting () =
  let topo = Topology.spine_leaf ~spines:2 ~leaves:2 ~hosts_per_leaf:1 in
  let fabric = Fabric.create topo in
  let tuple = tup ~src:"10.1.1.5" ~dst:"10.2.1.5" () in
  let id =
    Option.get (Fabric.start_flow fabric ~time:0. ~tuple ~rate:1000. ())
  in
  let path = Option.get (Fabric.flow_path fabric id) in
  let sws = Routing.path_switches topo path in
  Alcotest.(check int) "leaf-spine-leaf" 3 (List.length sws);
  (* every switch on the path accumulates the flow's bytes *)
  List.iter
    (fun sw ->
      let m = Fabric.switch fabric sw in
      let total =
        List.fold_left
          (fun acc p -> acc +. Switch_model.port_bytes m ~time:4. ~port:p)
          0.
          (List.init (Switch_model.port_count m) Fun.id)
      in
      check_float "bytes on path switch" 4000. total)
    sws;
  Fabric.stop_flow fabric ~time:4. id;
  Alcotest.(check int) "no active flows" 0 (Fabric.active_flow_count fabric)

let test_traffic_background_sustains () =
  let topo = Topology.spine_leaf ~spines:2 ~leaves:3 ~hosts_per_leaf:2 in
  let fabric = Fabric.create topo in
  let engine = Engine.create ~seed:7 () in
  let rng = Rng.split (Engine.rng engine) in
  let profile =
    { Traffic.concurrent_flows = 50; mean_rate = 10_000.; zipf_s = 1.;
      mean_lifetime = 5. }
  in
  Traffic.background engine fabric rng profile;
  Engine.run ~until:20. engine;
  let n = Fabric.active_flow_count fabric in
  Alcotest.(check bool) "roughly target concurrency" true (n >= 40 && n <= 60)

let test_traffic_heavy_hitter () =
  let topo = Topology.spine_leaf ~spines:2 ~leaves:2 ~hosts_per_leaf:1 in
  let fabric = Fabric.create topo in
  let engine = Engine.create () in
  let rng = Rng.split (Engine.rng engine) in
  let hh = Traffic.heavy_hitter engine fabric rng ~at:5. ~rate:1e6 () in
  Engine.run ~until:4. engine;
  Alcotest.(check bool) "not yet started" true (!hh = None);
  Engine.run ~until:6. engine;
  Alcotest.(check bool) "started" true (!hh <> None)

let test_traffic_syn_flood_flags () =
  let topo = Topology.spine_leaf ~spines:2 ~leaves:2 ~hosts_per_leaf:2 in
  let fabric = Fabric.create topo in
  let engine = Engine.create () in
  let rng = Rng.split (Engine.rng engine) in
  let victim = Ipaddr.of_string "10.2.1.7" in
  Traffic.syn_flood engine fabric rng ~at:1. ~duration:10. ~victim
    ~rate_per_source:5000. ~sources:20;
  Engine.run ~until:2. engine;
  (* victim's leaf switch sees SYN packets towards the victim *)
  let leaf =
    List.find (fun (n : Topology.node) -> n.name = "leaf1")
      (Topology.nodes topo)
  in
  let sw = Fabric.switch fabric leaf.id in
  let saw_syn = ref false in
  for _ = 1 to 100 do
    match Switch_model.sample_packet sw rng with
    | Some p when p.flags.syn && Ipaddr.equal p.tuple.dst victim ->
        saw_syn := true
    | Some _ | None -> ()
  done;
  Alcotest.(check bool) "syn packets observed" true !saw_syn;
  Engine.run ~until:12. engine;
  Alcotest.(check int) "attack flows gone" 0 (Fabric.active_flow_count fabric)

(* ------------------------------------------------------------------ *)
(* Property tests: round-trips, model-based TCAM, ECMP validity        *)
(* ------------------------------------------------------------------ *)

let prop_ip_roundtrip =
  QCheck2.Test.make ~name:"ipaddr int/string round-trip" ~count:500
    QCheck2.Gen.(pair (int_bound 0xFFFF) (int_bound 0xFFFF))
    (fun (hi, lo) ->
      let n = (hi lsl 16) lor lo in
      let a = Ipaddr.of_int n in
      Ipaddr.to_int a = n
      && Ipaddr.equal a (Ipaddr.of_string (Ipaddr.to_string a)))

let prop_prefix_roundtrip =
  QCheck2.Test.make ~name:"prefix print/parse round-trip" ~count:500
    QCheck2.Gen.(triple (int_bound 0xFFFF) (int_bound 0xFFFF) (int_range 0 32))
    (fun (hi, lo, len) ->
      let p = Ipaddr.Prefix.make (Ipaddr.of_int ((hi lsl 16) lor lo)) len in
      Ipaddr.Prefix.equal p
        (Ipaddr.Prefix.of_string (Ipaddr.Prefix.to_string p)))

(* TCAM model test: rules live in a flat association list and lookup is a
   naive scan.  Prefix rules get priority = prefix length, so the test also
   exercises longest-prefix-match-by-priority, the way seeds install
   drill-down rules. *)

let gen_tcam_rule =
  let open QCheck2.Gen in
  let* region =
    map (fun b -> if b then Tcam.Forwarding else Tcam.Monitoring) bool
  in
  let* pattern, priority =
    oneof
      [
        (let* len = int_range 8 32 in
         let* b = int_bound 0xFF in
         let pfx = Ipaddr.Prefix.make (Ipaddr.of_int ((10 lsl 24) lor b)) len in
         return (Filter.atom (Filter.Dst_ip pfx), len));
        (let* p = int_range 1 5 in
         let* prio = int_range 0 40 in
         return (Filter.atom (Filter.Dst_port p), prio));
        (let* p = int_range 1 5 in
         let* prio = int_range 0 40 in
         return (Filter.atom (Filter.Src_port p), prio));
        (let* prio = int_range 0 40 in
         return (Filter.atom (Filter.Proto Flow.Tcp), prio));
        (let* prio = int_range 0 40 in
         return (Filter.True, prio));
      ]
  in
  return (region, { Tcam.pattern; action = Tcam.Count; priority })

let gen_tcam_tuple =
  let open QCheck2.Gen in
  let* s = int_bound 0xFF in
  let* d = int_bound 0xFF in
  let* sport = int_range 1 5 in
  let* dport = int_range 1 5 in
  let* proto = map (fun b -> if b then Flow.Tcp else Flow.Udp) bool in
  return
    {
      Flow.src = Ipaddr.of_int ((10 lsl 24) lor s);
      dst = Ipaddr.of_int ((10 lsl 24) lor d);
      sport;
      dport;
      proto;
    }

(* Mirrors the documented semantics: within a region highest priority wins,
   insertion order breaks ties (both the TCAM's insert_sorted and this
   stable_sort preserve it); across regions forwarding wins unless a
   monitoring rule has strictly higher priority. *)
let tcam_oracle model tuple =
  let best region =
    List.filter
      (fun (r, _, (rule : Tcam.rule)) ->
        r = region && Filter.matches rule.pattern tuple)
      model
    |> List.stable_sort (fun (_, _, (a : Tcam.rule)) (_, _, (b : Tcam.rule)) ->
           Int.compare b.priority a.priority)
    |> function
    | [] -> None
    | x :: _ -> Some x
  in
  match (best Tcam.Forwarding, best Tcam.Monitoring) with
  | None, None -> None
  | Some (_, id, _), None | None, Some (_, id, _) -> Some id
  | Some (_, fid, (fr : Tcam.rule)), Some (_, mid, (mr : Tcam.rule)) ->
      if mr.priority > fr.priority then Some mid else Some fid

let prop_tcam_vs_oracle =
  QCheck2.Test.make ~name:"tcam lookup matches list-scan oracle" ~count:200
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 30) gen_tcam_rule)
        (list_size (int_range 1 12) gen_tcam_tuple))
    (fun (rules, tuples) ->
      (* capacity below the rule count so the [Error `Full] path (rule
         silently absent from both tcam and model) is exercised too *)
      let t = Tcam.create ~monitoring_share:0.5 ~capacity:20 () in
      let model =
        List.filter_map
          (fun (region, rule) ->
            match Tcam.add t region rule with
            | Ok inst -> Some (region, inst.Tcam.id, rule)
            | Error `Full -> None)
          rules
      in
      List.for_all
        (fun tuple ->
          Option.map (fun (i : Tcam.installed) -> i.id) (Tcam.lookup t tuple)
          = tcam_oracle model tuple)
        tuples)

let prop_ecmp_paths_valid =
  QCheck2.Test.make
    ~name:"ECMP paths: endpoints, loop-free, minimal, live links" ~count:150
    QCheck2.Gen.(
      let* spines = int_range 2 3 in
      let* leaves = int_range 2 4 in
      let* pick = int_bound 10_000 in
      let* cut = int_bound 10_000 in
      return (spines, leaves, pick, cut))
    (fun (spines, leaves, pick, cut) ->
      let topo = Topology.spine_leaf ~spines ~leaves ~hosts_per_leaf:2 in
      let hosts = Array.of_list (Topology.hosts topo) in
      let n = Array.length hosts in
      let si = pick mod n in
      let di = (pick / n) mod n in
      let di = if di = si then (di + 1) mod n else di in
      let src = hosts.(si).Topology.id and dst = hosts.(di).Topology.id in
      let valid () =
        match Routing.shortest_paths topo ~src ~dst with
        | [] -> false
        | paths ->
            let min_len =
              List.fold_left (fun acc p -> min acc (List.length p)) max_int
                paths
            in
            List.for_all
              (fun p ->
                List.length p = min_len
                && List.hd p = src
                && List.nth p (List.length p - 1) = dst
                && List.length (List.sort_uniq Int.compare p) = List.length p
                &&
                let rec live = function
                  | a :: (b :: _ as rest) ->
                      Topology.link_is_up topo a b && live rest
                  | _ -> true
                in
                live p)
              paths
      in
      let ok_before = valid () in
      (* cut one leaf-spine link: with >= 2 spines the fabric stays
         connected and surviving paths must route around it *)
      let sw_links = Array.of_list (Topology.switch_links topo) in
      let a, b = sw_links.(cut mod Array.length sw_links) in
      Topology.set_link_state topo a b ~up:false;
      ok_before && valid ())

let test_fabric_link_failover () =
  let topo = Topology.spine_leaf ~spines:2 ~leaves:2 ~hosts_per_leaf:1 in
  let fabric = Fabric.create topo in
  let tuple = tup ~src:"10.1.1.5" ~dst:"10.2.1.5" () in
  let id =
    Option.get (Fabric.start_flow fabric ~time:0. ~tuple ~rate:1000. ())
  in
  let path0 = Option.get (Fabric.flow_path fabric id) in
  (* host - leaf - spine - leaf - host *)
  let leaf = List.nth path0 1 and spine = List.nth path0 2 in
  Fabric.set_link_state fabric ~time:1. leaf spine ~up:false;
  let path1 = Option.get (Fabric.flow_path fabric id) in
  Alcotest.(check bool) "moved off the dead link" true (path1 <> path0);
  let rec uses = function
    | a :: (b :: _ as rest) ->
        (a = leaf && b = spine) || (a = spine && b = leaf) || uses rest
    | _ -> false
  in
  Alcotest.(check bool) "new path avoids dead link" false (uses path1);
  Alcotest.(check int) "reroute counted" 1 (Fabric.rerouted_flows fabric);
  Fabric.set_link_state fabric ~time:2. leaf spine ~up:true;
  let path2 = Option.get (Fabric.flow_path fabric id) in
  Alcotest.(check (list int)) "repair restores the ECMP choice" path0 path2;
  (* cut every uplink of the source leaf: no route is left so the flow is
     torn down rather than silently black-holed *)
  let uplinks =
    List.filter (fun s -> Topology.is_switch topo s)
      (Topology.neighbors topo leaf)
  in
  List.iter
    (fun s -> Fabric.set_link_state fabric ~time:3. leaf s ~up:false)
    uplinks;
  Alcotest.(check int) "flow dropped" 0 (Fabric.active_flow_count fabric);
  Alcotest.(check int) "drop counted" 1 (Fabric.dropped_flows fabric)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "farm_net"
    [ ( "ipaddr",
        [ Alcotest.test_case "roundtrip" `Quick test_ip_roundtrip;
          Alcotest.test_case "invalid" `Quick test_ip_invalid;
          Alcotest.test_case "prefix mem" `Quick test_prefix_mem;
          Alcotest.test_case "subset/overlap" `Quick
            test_prefix_subset_overlap;
          Alcotest.test_case "normalizes" `Quick test_prefix_normalizes ]
        @ qsuite
            [ prop_prefix_member_of_own_prefix; prop_ip_roundtrip;
              prop_prefix_roundtrip ] );
      ( "filter",
        [ Alcotest.test_case "atoms" `Quick test_filter_atoms;
          Alcotest.test_case "boolean" `Quick test_filter_boolean;
          Alcotest.test_case "subjects" `Quick test_filter_subjects ]
        @ qsuite [ prop_filter_demorgan ] );
      ( "tcam",
        [ Alcotest.test_case "partition" `Quick test_tcam_partition;
          Alcotest.test_case "priority lookup" `Quick
            test_tcam_priority_lookup;
          Alcotest.test_case "counters and remove" `Quick
            test_tcam_counters_and_remove ]
        @ qsuite [ prop_tcam_vs_oracle ] );
      ( "topology",
        [ Alcotest.test_case "spine-leaf shape" `Quick test_spine_leaf_shape;
          Alcotest.test_case "fat-tree shape" `Quick test_fat_tree_shape;
          Alcotest.test_case "host_of_addr" `Quick test_host_of_addr ] );
      ( "routing",
        [ Alcotest.test_case "ECMP spine-leaf" `Quick
            test_shortest_paths_spine_leaf;
          Alcotest.test_case "same leaf" `Quick test_paths_same_leaf;
          Alcotest.test_case "route deterministic" `Quick
            test_route_flow_deterministic;
          Alcotest.test_case "paths matching filter" `Quick
            test_paths_matching_filter;
          Alcotest.test_case "three-valued satisfiability" `Quick
            test_satisfiable_three_valued ]
        @ qsuite [ prop_ecmp_paths_valid ] );
      ( "switch_model",
        [ Alcotest.test_case "counters integrate" `Quick
            test_switch_counters_integrate;
          Alcotest.test_case "subject counters" `Quick
            test_switch_subject_counters;
          Alcotest.test_case "tcam reaction" `Quick test_switch_tcam_reaction;
          Alcotest.test_case "rule counts from install to removal" `Quick
            test_switch_rule_lifetime;
          Alcotest.test_case "sampling" `Quick test_switch_sampling ]
        @ qsuite
            [ prop_sample_matches_walk; prop_accounting_matches_scan;
              prop_flow_store_sorted ] );
      ( "fabric",
        [ Alcotest.test_case "flow accounting" `Quick
            test_fabric_flow_accounting;
          Alcotest.test_case "link failover" `Quick test_fabric_link_failover ] );
      ( "traffic",
        [ Alcotest.test_case "background sustains" `Quick
            test_traffic_background_sustains;
          Alcotest.test_case "heavy hitter" `Quick test_traffic_heavy_hitter;
          Alcotest.test_case "syn flood flags" `Quick
            test_traffic_syn_flood_flags ] ) ]
