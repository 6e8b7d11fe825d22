module Engine = Farm_sim.Engine

type t = {
  engine : Engine.t;
  latency : float;
  hh_threshold : float;
  last : (int * int, float * float) Hashtbl.t;  (* (sw,port) -> time,bytes *)
  reported : (int * int, unit) Hashtbl.t;
  mutable detections : (float * int * int) list;  (* newest first *)
  mutable rx_bytes : float;
  mutable rx_records : int;
}

let create engine ~latency ~hh_threshold =
  { engine; latency; hh_threshold; last = Hashtbl.create 256;
    reported = Hashtbl.create 64; detections = []; rx_bytes = 0.;
    rx_records = 0 }

let counter_record_bytes = 28.

let process_record t engine ~switch ~port ~bytes ~read_time =
  t.rx_bytes <- t.rx_bytes +. counter_record_bytes;
  t.rx_records <- t.rx_records + 1;
  let key = (switch, port) in
  (match Hashtbl.find_opt t.last key with
  | Some (t0, b0) when read_time > t0 ->
      let rate = (bytes -. b0) /. (read_time -. t0) in
      if rate >= t.hh_threshold && not (Hashtbl.mem t.reported key) then begin
        Hashtbl.replace t.reported key ();
        t.detections <- (Engine.now engine, switch, port) :: t.detections
      end
  | Some _ | None -> ());
  Hashtbl.replace t.last key (read_time, bytes)

let push_counters t ~switch ~port ~bytes ~read_time =
  Engine.schedule t.engine ~delay:t.latency (fun engine ->
      process_record t engine ~switch ~port ~bytes ~read_time)

let push_counters_batch t ~switch ~read_time readings =
  Engine.schedule t.engine ~delay:t.latency (fun engine ->
      Array.iteri
        (fun port bytes ->
          process_record t engine ~switch ~port ~bytes ~read_time)
        readings)

let push_opaque t ~bytes ~records =
  Engine.schedule t.engine ~delay:t.latency (fun _ ->
      t.rx_bytes <- t.rx_bytes +. bytes;
      t.rx_records <- t.rx_records + records)

let detections t = List.rev t.detections

let first_detection_after t time =
  List.find_opt (fun (d, _, _) -> d >= time) (detections t)

let rx_bytes t = t.rx_bytes
let rx_records t = t.rx_records

let reset_stats t =
  t.rx_bytes <- 0.;
  t.rx_records <- 0
