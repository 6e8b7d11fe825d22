(* The seed scheduler, kept verbatim as the executable spec of
   [Farm_sim.Engine]: a single binary heap of callback closures, FIFO on
   time ties (provided by Heap's insertion-order tie-break). *)

type t = {
  mutable clock : float;
  queue : (t -> unit) Heap.t;
  mutable dispatched : int;
}

type timer = {
  mutable period : float;
  mutable cancelled : bool;
  callback : t -> unit;
}

let create () = { clock = 0.; queue = Heap.create (); dispatched = 0 }
let now t = t.clock
let dispatched t = t.dispatched

let schedule_at t ~time f =
  if time < t.clock -. 1e-12 then invalid_arg "Heap_sched: past";
  Heap.push t.queue ~time f

let schedule t ~delay f =
  if delay < 0. then invalid_arg "Heap_sched: negative delay";
  schedule_at t ~time:(t.clock +. delay) f

let rec fire timer engine =
  if not timer.cancelled then begin
    timer.callback engine;
    if not timer.cancelled then
      schedule engine ~delay:timer.period (fire timer)
  end

let every t ~period ?phase f =
  if period <= 0. then invalid_arg "Heap_sched: period must be positive";
  let timer = { period; cancelled = false; callback = f } in
  let phase = Option.value phase ~default:period in
  schedule t ~delay:phase (fire timer);
  timer

let cancel timer = timer.cancelled <- true
let set_period timer p = timer.period <- p

let run ?until t =
  let continue = ref true in
  while !continue do
    if Heap.is_empty t.queue then continue := false
    else
      let time = Heap.min_time_exn t.queue in
      match until with
      | Some u when time > u ->
          t.clock <- u;
          continue := false
      | Some _ | None ->
          let f = Heap.pop_min_exn t.queue in
          t.clock <- time;
          t.dispatched <- t.dispatched + 1;
          f t
  done;
  match until with
  | Some u when t.clock < u && Heap.is_empty t.queue -> t.clock <- u
  | Some _ | None -> ()
