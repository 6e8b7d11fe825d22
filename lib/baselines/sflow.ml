module Engine = Farm_sim.Engine
module Fabric = Farm_net.Fabric
module Switch_model = Farm_net.Switch_model

type config = {
  poll_period : float;
  collector_latency : float;
}

let default_config =
  { poll_period = 0.1;  (* classic 100 ms export *)
    collector_latency = 250e-6 }

type t = {
  collector : Collector.t;
  timers : Engine.timer list;
}

let deploy ?(config = default_config) engine fabric ~hh_threshold =
  let collector =
    Collector.create engine ~latency:config.collector_latency ~hh_threshold
  in
  let timers =
    List.map
      (fun sw ->
        let node = Switch_model.id sw in
        Engine.every engine ~period:config.poll_period (fun engine ->
            (* read and export every port counter, no local filtering *)
            let now = Engine.now engine in
            let readings =
              Array.init (Switch_model.port_count sw) (fun port ->
                  Switch_model.port_bytes sw ~time:now ~port)
            in
            Collector.push_counters_batch collector ~switch:node
              ~read_time:now readings))
      (Fabric.switch_models fabric)
  in
  { collector; timers }

let collector t = t.collector

let shutdown t = List.iter Engine.cancel t.timers
