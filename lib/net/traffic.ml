module Engine = Farm_sim.Engine
module Rng = Farm_sim.Rng

type profile = {
  concurrent_flows : int;
  mean_rate : float;
  zipf_s : float;
  mean_lifetime : float;
}

let default_profile =
  { concurrent_flows = 100; mean_rate = 100_000.; zipf_s = 1.;
    mean_lifetime = 30. }

let random_tuple fabric rng ?src ?dst ?(sport = 0) ?(dport = 0)
    ?(proto = Flow.Tcp) () =
  let src = match src with Some s -> s | None -> Fabric.random_host_addr fabric rng in
  let dst = match dst with Some d -> d | None -> Fabric.random_host_addr fabric rng in
  let sport = if sport > 0 then sport else 1024 + Rng.int rng 60_000 in
  let dport = if dport > 0 then dport else 1024 + Rng.int rng 60_000 in
  { Flow.src; dst; sport; dport; proto }

let background engine fabric rng profile =
  let spawn_one engine =
    let tuple = random_tuple fabric rng () in
    (* Zipf rank scales the rate: a handful of flows are much faster *)
    let rank = Rng.zipf rng ~n:1000 ~s:profile.zipf_s in
    let rate = profile.mean_rate *. (10. /. float_of_int (rank + 10)) in
    let time = Engine.now engine in
    match Fabric.start_flow fabric ~time ~tuple ~rate () with
    | None -> ()
    | Some id ->
        let life = Rng.exponential rng (1. /. profile.mean_lifetime) in
        Engine.schedule engine ~delay:life (fun engine ->
            Fabric.stop_flow fabric ~time:(Engine.now engine) id)
  in
  (* refill loop keeps the target concurrency *)
  let refill engine =
    let missing = profile.concurrent_flows - Fabric.active_flow_count fabric in
    for _ = 1 to missing do
      spawn_one engine
    done
  in
  Engine.schedule engine ~delay:0. refill;
  ignore
    (Engine.every engine ~period:(profile.mean_lifetime /. 10.) refill)

let heavy_hitter engine fabric rng ~at ~rate () =
  let result = ref None in
  Engine.schedule_at engine ~time:at (fun engine ->
      let tuple = random_tuple fabric rng () in
      result :=
        Fabric.start_flow fabric ~time:(Engine.now engine) ~tuple ~rate ());
  result

let timed_flows engine fabric ~at ~duration mk_flows =
  Engine.schedule_at engine ~time:at (fun engine ->
      let time = Engine.now engine in
      let ids = mk_flows time in
      Engine.schedule engine ~delay:duration (fun engine ->
          List.iter
            (fun id -> Fabric.stop_flow fabric ~time:(Engine.now engine) id)
            ids))

let syn_flood engine fabric rng ~at ~duration ~victim ~rate_per_source
    ~sources =
  timed_flows engine fabric ~at ~duration (fun time ->
      List.filter_map
        (fun _ ->
          let tuple = random_tuple fabric rng ~dst:victim ~dport:80 () in
          Fabric.start_flow fabric ~time ~tuple ~rate:rate_per_source
            ~flags:Flow.syn_only ())
        (List.init sources Fun.id))

let port_scan engine fabric rng ~at ~duration ~victim ~ports =
  timed_flows engine fabric ~at ~duration (fun time ->
      let src = Fabric.random_host_addr fabric rng in
      List.filter_map
        (fun i ->
          let tuple =
            { Flow.src; dst = victim; sport = 40_000 + i; dport = 1 + i;
              proto = Flow.Tcp }
          in
          Fabric.start_flow fabric ~time ~tuple ~rate:500.
            ~flags:Flow.syn_only ())
        (List.init ports Fun.id))

let superspreader engine fabric rng ~at ~duration ~fanout =
  timed_flows engine fabric ~at ~duration (fun time ->
      let src = Fabric.random_host_addr fabric rng in
      List.filter_map
        (fun _ ->
          let tuple = random_tuple fabric rng ~src () in
          Fabric.start_flow fabric ~time ~tuple ~rate:2000. ())
        (List.init fanout Fun.id))

let dns_reflection engine fabric rng ~at ~duration ~victim ~reflectors
    ~rate_per_reflector =
  timed_flows engine fabric ~at ~duration (fun time ->
      List.filter_map
        (fun _ ->
          let src = Fabric.random_host_addr fabric rng in
          let tuple =
            { Flow.src; dst = victim; sport = 53;
              dport = 1024 + Rng.int rng 60_000; proto = Flow.Udp }
          in
          Fabric.start_flow fabric ~time ~tuple ~rate:rate_per_reflector
            ~payload:"dns-resp" ())
        (List.init reflectors Fun.id))

let ssh_brute_force engine fabric rng ~at ~duration ~victim ~attempts_per_sec =
  (* short-lived connections to port 22, re-spawned at the attempt rate *)
  Engine.schedule_at engine ~time:at (fun engine ->
      let src = Fabric.random_host_addr fabric rng in
      let stop_at = Engine.now engine +. duration in
      let timer = ref None in
      let attempt engine =
        if Engine.now engine >= stop_at then
          Option.iter Engine.cancel !timer
        else begin
          let tuple = random_tuple fabric rng ~src ~dst:victim ~dport:22 () in
          match
            Fabric.start_flow fabric ~time:(Engine.now engine) ~tuple
              ~rate:1000. ~flags:Flow.syn_only ()
          with
          | None -> ()
          | Some id ->
              Engine.schedule engine ~delay:0.2 (fun engine ->
                  Fabric.stop_flow fabric ~time:(Engine.now engine) id)
        end
      in
      timer := Some (Engine.every engine ~period:(1. /. attempts_per_sec) attempt))

let slowloris engine fabric rng ~at ~duration ~victim ~connections =
  timed_flows engine fabric ~at ~duration (fun time ->
      List.filter_map
        (fun _ ->
          let tuple = random_tuple fabric rng ~dst:victim ~dport:80 () in
          (* barely-alive connections: a few bytes per second *)
          Fabric.start_flow fabric ~time ~tuple ~rate:10. ())
        (List.init connections Fun.id))
