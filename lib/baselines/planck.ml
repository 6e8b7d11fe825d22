module Engine = Farm_sim.Engine
module Fabric = Farm_net.Fabric
module Switch_model = Farm_net.Switch_model

let sample_period = 1e-3  (* mirror port drains a sample per ms *)
let min_samples = 3  (* samples of one port needed before deciding *)
let process_latency = 0.5e-3  (* collector pipeline delay *)
let mirror_latency = 100e-6

type t = {
  mutable timers : Engine.timer list;
  reported : (int * int, unit) Hashtbl.t;
  mutable detections : (float * int * int) list;
  mutable rx_bytes : float;
}

let deploy engine fabric ~hh_threshold =
  let t =
    { timers = []; reported = Hashtbl.create 64;
      detections = []; rx_bytes = 0. }
  in
  let rng = Farm_sim.Rng.split (Engine.rng engine) in
  let timers =
    List.map
      (fun sw ->
        let node = Switch_model.id sw in
        (* sliding sample counts per egress port *)
        let counts = Hashtbl.create 16 in
        Engine.every engine ~period:sample_period (fun engine ->
            match Switch_model.sample_packet sw rng with
            | None -> ()
            | Some pkt ->
                t.rx_bytes <- t.rx_bytes +. float_of_int pkt.size;
                (* estimate: a port whose flow yields [min_samples]
                   consecutive-ish samples is carrying >= its fair share
                   scaled by the total rate; combined with the rate check
                   this is Planck's windowed estimation *)
                let total = Switch_model.total_rate sw in
                if total >= hh_threshold then begin
                  let key = Hashtbl.hash pkt.tuple land 0xFF in
                  let c =
                    1 + Option.value (Hashtbl.find_opt counts key) ~default:0
                  in
                  Hashtbl.replace counts key c;
                  if c >= min_samples
                     && not (Hashtbl.mem t.reported (node, key))
                  then begin
                    (* the flow's estimated rate: its sample share *)
                    let est =
                      total *. float_of_int c
                      /. float_of_int (max 1 (Hashtbl.length counts * c))
                    in
                    if est >= hh_threshold then begin
                      Hashtbl.replace t.reported (node, key) ();
                      Engine.schedule engine
                        ~delay:(mirror_latency +. process_latency)
                        (fun engine ->
                          t.detections <-
                            (Engine.now engine, node, key) :: t.detections)
                    end
                  end
                end))
      (Fabric.switch_models fabric)
  in
  t.timers <- timers;
  t

let detections t = List.rev t.detections

let first_detection_after t time =
  List.find_opt (fun (d, _, _) -> d >= time) (detections t)

let rx_bytes t = t.rx_bytes

let shutdown t = List.iter Engine.cancel t.timers
