module Engine = Farm_sim.Engine
module Fabric = Farm_net.Fabric
module Switch_model = Farm_net.Switch_model

let window = 3.  (* streaming batch interval *)
let batch_process_time = 0.4
let aggregation_factor = 0.75  (* best achievable per §VI-B b *)
let record_bytes = 64.
let collector_latency = 250e-6

type t = {
  collector : Collector.t;
  mutable timers : Engine.timer list;
  reported : (int * int, unit) Hashtbl.t;
  mutable detections : (float * int * int) list;
  hh_threshold : float;
}

let deploy engine fabric ~hh_threshold =
  let collector =
    Collector.create engine ~latency:collector_latency ~hh_threshold
  in
  let t =
    { collector; timers = []; reported = Hashtbl.create 64;
      detections = []; hh_threshold }
  in
  let timers =
    List.map
      (fun sw ->
        let node = Switch_model.id sw in
        let window_start =
          Array.make (Switch_model.port_count sw) 0.
        in
        let last_total = ref 0. in
        Engine.every engine ~period:window (fun engine ->
            let now = Engine.now engine in
            (* The data plane reduces the packet stream by the aggregation
               factor; the remaining per-packet records stream to Spark.
               Packets ~ bytes/1kB. *)
            let total =
              let acc = ref 0. in
              for port = 0 to Switch_model.port_count sw - 1 do
                acc := !acc +. Switch_model.port_bytes sw ~time:now ~port
              done;
              !acc
            in
            let window_bytes = total -. !last_total in
            last_total := total;
            let packets = window_bytes /. 1000. in
            let records =
              int_of_float
                (ceil (packets *. (1. -. aggregation_factor)))
            in
            Collector.push_opaque collector
              ~bytes:(float_of_int records *. record_bytes)
              ~records;
            (* the batch is evaluated after the processing delay *)
            let snapshot =
              Array.init (Switch_model.port_count sw) (fun port ->
                  Switch_model.port_bytes sw ~time:now ~port)
            in
            let start = Array.copy window_start in
            Array.blit snapshot 0 window_start 0 (Array.length snapshot);
            Engine.schedule engine
              ~delay:(collector_latency +. batch_process_time)
              (fun engine ->
                Array.iteri
                  (fun port bytes ->
                    let rate = (bytes -. start.(port)) /. window in
                    if
                      rate >= t.hh_threshold
                      && not (Hashtbl.mem t.reported (node, port))
                    then begin
                      Hashtbl.replace t.reported (node, port) ();
                      t.detections <-
                        (Engine.now engine, node, port) :: t.detections
                    end)
                  snapshot)))
      (Fabric.switch_models fabric)
  in
  t.timers <- timers;
  t

let detections t = List.rev t.detections

let first_detection_after t time =
  List.find_opt (fun (d, _, _) -> d >= time) (detections t)

let rx_bytes t = Collector.rx_bytes t.collector

let shutdown t = List.iter Engine.cancel t.timers
