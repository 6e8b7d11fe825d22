(* Tests for the comparator-system models: the collector, sFlow, Sonata,
   Planck and Helios all run the same heavy-hitter scenario; the pipeline
   structure of each must produce its characteristic detection
   latency. *)

module Engine = Farm_sim.Engine
module Rng = Farm_sim.Rng
module Topology = Farm_net.Topology
module Fabric = Farm_net.Fabric
module Flow = Farm_net.Flow
module Ipaddr = Farm_net.Ipaddr
open Farm_baselines

let threshold = 1e6
let onset = 2.

let make_world ?(background = true) () =
  let engine = Engine.create ~seed:8 () in
  let topo = Topology.spine_leaf ~spines:2 ~leaves:3 ~hosts_per_leaf:2 in
  let fabric = Fabric.create topo in
  if background then begin
    let rng = Rng.split (Engine.rng engine) in
    Farm_net.Traffic.background engine fabric rng
      { Farm_net.Traffic.default_profile with concurrent_flows = 30;
        mean_rate = 10_000. }
  end;
  (engine, fabric)

let inject_hh engine fabric ~rate =
  Engine.schedule_at engine ~time:onset (fun engine ->
      let tuple =
        { Flow.src = Ipaddr.of_string "10.1.1.5";
          dst = Ipaddr.of_string "10.3.1.5"; sport = 7; dport = 7;
          proto = Flow.Udp }
      in
      ignore
        (Fabric.start_flow fabric ~time:(Engine.now engine) ~tuple ~rate ()))

(* ------------------------------------------------------------------ *)
(* Collector                                                           *)
(* ------------------------------------------------------------------ *)

let test_collector_rate_detection () =
  let engine, _ = make_world ~background:false () in
  let c =
    Collector.create engine ~latency:1e-3 ~hh_threshold:1000.
  in
  (* two reports 1 s apart: delta 5000 B -> 5 kB/s >= 1 kB/s threshold *)
  Collector.push_counters c ~switch:1 ~port:2 ~bytes:0. ~read_time:0.;
  Engine.schedule engine ~delay:1. (fun _ ->
      Collector.push_counters c ~switch:1 ~port:2 ~bytes:5000. ~read_time:1.);
  Engine.run engine;
  (match Collector.detections c with
  | [ (t, 1, 2) ] ->
      Alcotest.(check bool) "detection after network latency" true (t > 1.)
  | d -> Alcotest.failf "expected one detection, got %d" (List.length d));
  (* duplicate reports do not re-detect *)
  Collector.push_counters c ~switch:1 ~port:2 ~bytes:99_000. ~read_time:2.;
  Engine.run engine;
  Alcotest.(check int) "deduplicated" 1 (List.length (Collector.detections c));
  Alcotest.(check int) "records counted" 3 (Collector.rx_records c)

(* ------------------------------------------------------------------ *)
(* Pipeline latencies                                                  *)
(* ------------------------------------------------------------------ *)

let detect_latency deploy detect shutdown =
  let engine, fabric = make_world () in
  let t = deploy engine fabric in
  inject_hh engine fabric ~rate:2e7;
  Engine.run ~until:(onset +. 10.) engine;
  let r =
    match detect t onset with
    | Some d -> Some (d -. onset)
    | None -> None
  in
  shutdown t;
  r

let test_sflow_latency_tracks_period () =
  let lat period =
    match
      detect_latency
        (fun e f ->
          Sflow.deploy
            ~config:{ Sflow.default_config with poll_period = period }
            e f ~hh_threshold:threshold)
        (fun t o ->
          Option.map (fun (d, _, _) -> d)
            (Collector.first_detection_after (Sflow.collector t) o))
        Sflow.shutdown
    with
    | Some d -> d
    | None -> Alcotest.fail "sFlow must detect"
  in
  let fast = lat 0.01 and slow = lat 0.1 in
  Alcotest.(check bool)
    (Printf.sprintf "detection within ~period (%.3f, %.3f)" fast slow)
    true
    (fast <= 0.03 && slow <= 0.25 && slow > fast)

let test_sonata_detects_at_batch_boundary () =
  match
    detect_latency
      (fun e f -> Sonata.deploy e f ~hh_threshold:threshold)
      (fun t o ->
        Option.map (fun (d, _, _) -> d) (Sonata.first_detection_after t o))
      Sonata.shutdown
  with
  | Some d ->
      (* bounded below by the batch processing delay, above by window +
         processing *)
      Alcotest.(check bool)
        (Printf.sprintf "batchy latency (%.2fs)" d)
        true
        (d >= Sonata.batch_process_time && d <= 3.5)
  | None -> Alcotest.fail "Sonata must detect"

let test_planck_fast () =
  match
    detect_latency
      (fun e f -> Planck.deploy e f ~hh_threshold:threshold)
      (fun t o ->
        Option.map (fun (d, _, _) -> d) (Planck.first_detection_after t o))
      Planck.shutdown
  with
  | Some d ->
      Alcotest.(check bool)
        (Printf.sprintf "millisecond scale (%.4fs)" d)
        true (d < 0.02)
  | None -> Alcotest.fail "Planck must detect"

let test_helios_within_loop () =
  match
    detect_latency
      (fun e f -> Helios.deploy e f ~hh_threshold:threshold)
      (fun t o ->
        Option.map (fun (d, _, _) -> d) (Helios.first_detection_after t o))
      Helios.shutdown
  with
  | Some d ->
      Alcotest.(check bool)
        (Printf.sprintf "within ~2 loop periods (%.3fs)" d)
        true
        (d <= 2.5 *. Helios.loop_period)
  | None -> Alcotest.fail "Helios must detect"

(* ------------------------------------------------------------------ *)
(* Property: sampling convergence                                      *)
(* ------------------------------------------------------------------ *)

(* sFlow-style packet sampling is rate-proportional: as the number of
   draws grows (sampling rate -> 1), the fraction of samples hitting the
   heavy hitter converges to its true share of the offered rate. *)
let prop_sampling_converges_to_hh_ratio =
  QCheck2.Test.make ~name:"packet sampling converges to true HH ratio"
    ~count:20
    QCheck2.Gen.(pair (int_range 1 100_000) (int_range 2 8))
    (fun (seed, n_bg) ->
      let sw = Farm_net.Switch_model.create ~id:1 ~ports:8 () in
      let rng = Rng.create seed in
      let hh_tuple =
        { Flow.src = Ipaddr.of_string "10.0.0.1";
          dst = Ipaddr.of_string "10.0.0.2"; sport = 1; dport = 1;
          proto = Flow.Udp }
      in
      let hh_rate = Rng.uniform rng 1e6 1e7 in
      Farm_net.Switch_model.add_flow sw ~time:0. ~flow_id:0 ~tuple:hh_tuple
        ~rate:hh_rate ~egress:0 ();
      let bg_total = ref 0. in
      for i = 1 to n_bg do
        let r = Rng.uniform rng 1e4 5e5 in
        bg_total := !bg_total +. r;
        Farm_net.Switch_model.add_flow sw ~time:0. ~flow_id:i
          ~tuple:
            { hh_tuple with sport = 100 + i; dport = 200 + i }
          ~rate:r ~egress:(1 + (i mod 7)) ()
      done;
      let true_share = hh_rate /. (hh_rate +. !bg_total) in
      let empirical n =
        let hits = ref 0 in
        for _ = 1 to n do
          match Farm_net.Switch_model.sample_packet sw rng with
          | Some p when p.Flow.tuple = hh_tuple -> incr hits
          | _ -> ()
        done;
        float_of_int !hits /. float_of_int n
      in
      let err n = Float.abs (empirical n -. true_share) in
      let coarse = err 100 and fine = err 8_000 in
      (* the fine estimate must be close to truth (binomial std at
         n = 8000 is < 0.006; 0.04 is > 6 sigma) and not meaningfully
         worse than the coarse one *)
      fine < 0.04 && fine <= coarse +. 0.04)

(* ------------------------------------------------------------------ *)
(* Property: detection within windowing bounds                         *)
(* ------------------------------------------------------------------ *)

(* On a randomly seeded attack mix (background + heavy hitter of random
   intensity), Sonata can only detect at a batch boundary — its latency
   is bounded below by the batch processing delay and above by a full
   window plus processing — while Planck's oversubscribed mirroring
   stays on the millisecond scale regardless of the mix. *)
let prop_detection_within_window_bounds =
  QCheck2.Test.make ~name:"Sonata/Planck latency within windowing bounds"
    ~count:8
    QCheck2.Gen.(pair (int_range 1 100_000) (float_range 5e6 5e7))
    (fun (seed, rate) ->
      let engine = Engine.create ~seed () in
      let topo = Topology.spine_leaf ~spines:2 ~leaves:3 ~hosts_per_leaf:2 in
      let fabric = Fabric.create topo in
      let rng = Rng.split (Engine.rng engine) in
      Farm_net.Traffic.background engine fabric rng
        { Farm_net.Traffic.default_profile with concurrent_flows = 30;
          mean_rate = 10_000. };
      let sonata = Sonata.deploy engine fabric ~hh_threshold:threshold in
      let planck = Planck.deploy engine fabric ~hh_threshold:threshold in
      inject_hh engine fabric ~rate;
      Engine.run ~until:(onset +. 10.) engine;
      let s_lat =
        Option.map (fun (d, _, _) -> d -. onset)
          (Sonata.first_detection_after sonata onset)
      and p_lat =
        Option.map (fun (d, _, _) -> d -. onset)
          (Planck.first_detection_after planck onset)
      in
      Sonata.shutdown sonata;
      Planck.shutdown planck;
      match (s_lat, p_lat) with
      | Some s, Some p ->
          s >= Sonata.batch_process_time
          && s <= Sonata.window +. Sonata.batch_process_time +. 0.5
          && p < 0.02
      | _ -> false)

let () =
  Alcotest.run "farm_baselines"
    [ ( "collector",
        [ Alcotest.test_case "rate detection" `Quick
            test_collector_rate_detection ] );
      ( "pipelines",
        [ Alcotest.test_case "sFlow tracks its period" `Quick
            test_sflow_latency_tracks_period;
          Alcotest.test_case "Sonata batch boundary" `Quick
            test_sonata_detects_at_batch_boundary;
          Alcotest.test_case "Planck fast" `Quick test_planck_fast;
          Alcotest.test_case "Helios loop-bounded" `Quick
            test_helios_within_loop ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_sampling_converges_to_hh_ratio;
            prop_detection_within_window_bounds ] ) ]
