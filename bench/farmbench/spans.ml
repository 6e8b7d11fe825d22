(* The benchmark's own wall-clock spans: one around every set-up and run
   phase and around every layer call it times, each with its parent.
   Kept in memory and written as a Chrome trace when the process ends.
   These spans are wall-clock and live apart from [Sim.Trace], whose
   events carry simulated time only. *)

let now_ns () = Monotonic_clock.now ()

let seconds_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-9

type span = {
  id : int;
  parent : int;  (* 0 = top level *)
  cat : string;
  name : string;
  t0 : int64;
  t1 : int64;
}

let finished : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 1

let with_span ~cat name f =
  let id = !next_id in
  incr next_id;
  let parent = match !stack with p :: _ -> p | [] -> 0 in
  stack := id :: !stack;
  let t0 = now_ns () in
  let close () =
    finished := { id; parent; cat; name; t0; t1 = now_ns () } :: !finished;
    stack := List.tl !stack
  in
  match f () with
  | v ->
      close ();
      v
  | exception e ->
      close ();
      raise e

(* Chrome "complete" events; [pid] separates processes in a merged file.
   Timestamps are the system monotonic clock in microseconds, so spans of
   child processes line up with their parent's. *)
let to_json ~pid =
  List.rev_map
    (fun s ->
      let us t = Int64.to_float t /. 1e3 in
      Json.Obj
        [ ("name", Json.Str s.name); ("cat", Json.Str s.cat);
          ("ph", Json.Str "X"); ("ts", Json.Num (us s.t0));
          ("dur", Json.Num (us (Int64.sub s.t1 s.t0)));
          ("pid", Json.Num (float_of_int pid)); ("tid", Json.Num 1.);
          ("args",
           Json.Obj
             [ ("id", Json.Num (float_of_int s.id));
               ("parent", Json.Num (float_of_int s.parent)) ]) ])
    !finished

let write_chrome path events =
  let oc = open_out path in
  output_string oc
    (Json.to_string (Json.Obj [ ("traceEvents", Json.Arr events);
                                ("displayTimeUnit", Json.Str "ms") ]));
  output_char oc '\n';
  close_out oc
