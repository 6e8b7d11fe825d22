module Engine = Farm_sim.Engine
module Fabric = Farm_net.Fabric
module Switch_model = Farm_net.Switch_model

let loop_period = 77e-3
let collector_latency = 250e-6

type t = {
  mutable timer : Engine.timer option;
  reported : (int * int, unit) Hashtbl.t;
  mutable detections : (float * int * int) list;
  mutable rx_bytes : float;
}

let deploy engine fabric ~hh_threshold =
  let t =
    { timer = None; reported = Hashtbl.create 64;
      detections = []; rx_bytes = 0. }
  in
  let switches = Fabric.switch_models fabric in
  (* previous full-loop counter snapshot per (switch, port) *)
  let last : (int * int, float * float) Hashtbl.t = Hashtbl.create 256 in
  let timer =
    Engine.every engine ~period:loop_period (fun engine ->
        let now = Engine.now engine in
        List.iter
          (fun sw ->
            let node = Switch_model.id sw in
            for port = 0 to Switch_model.port_count sw - 1 do
              let bytes = Switch_model.port_bytes sw ~time:now ~port in
              t.rx_bytes <- t.rx_bytes +. 28.;
              (match Hashtbl.find_opt last (node, port) with
              | Some (t0, b0) when now > t0 ->
                  let rate = (bytes -. b0) /. (now -. t0) in
                  if
                    rate >= hh_threshold
                    && not (Hashtbl.mem t.reported (node, port))
                  then begin
                    Hashtbl.replace t.reported (node, port) ();
                    t.detections <-
                      (now +. collector_latency, node, port)
                      :: t.detections
                  end
              | Some _ | None -> ());
              Hashtbl.replace last (node, port) (now, bytes)
            done)
          switches)
  in
  t.timer <- Some timer;
  t

let detections t = List.rev t.detections

let first_detection_after t time =
  List.find_opt (fun (d, _, _) -> d >= time) (detections t)

let rx_bytes t = t.rx_bytes

let shutdown t = match t.timer with Some tm -> Engine.cancel tm | None -> ()
