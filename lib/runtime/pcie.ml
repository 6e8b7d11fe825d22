module Engine = Farm_sim.Engine
module Metrics = Farm_sim.Metrics
module Trace = Farm_sim.Trace
module Switch_model = Farm_net.Switch_model

let c_pcie = Trace.key "soil.pcie"
let n_transfer = Trace.key "transfer"
let k_bytes = Trace.key "bytes"

type stats = {
  o_offered : int;
  o_completed : int;
  o_shed : int;
  o_pending : int;
  o_queue_peak : int;
}

(* One PCIe transfer, waiting or on the bus. *)
type 'o req = {
  rq_seq : int;  (* arrival order (newest = largest) *)
  rq_bytes : float;
  rq_issued : float;
  rq_prio : int;  (* max of the owning seeds' priorities *)
  rq_owners : 'o list;  (* owning seeds, one entry per poll *)
  rq_deliver : Engine.t -> unit;
}

(* Bus clocks; a float-only record, so per-transfer updates do not
   allocate. *)
type clocks = {
  mutable free_at : float;  (* end of the FIFO backlog *)
  mutable busy_s : float;  (* accumulated bus-busy seconds *)
}

type 'o t = {
  engine : Engine.t;
  sw : Switch_model.t;
  max_queue : int;
  (* arrival-time wait cap, against a backlog that ends at
     [clocks.free_at] *)
  wait_cap : float;
  (* the waiting transfers, oldest first, in [q_len] slots from [q_head];
     the highest priority among them and how many hold it; and whether
     one is on the bus *)
  mutable queue : 'o req array;
  mutable q_head : int;
  mutable q_len : int;
  mutable q_top : int;
  mutable q_top_n : int;
  mutable busy : bool;
  mutable on_bus : 'o req;  (* the transfer on the bus, while [busy] *)
  mutable finish : Engine.t -> unit;
      (* the bus's completion event, [complete t]: one closure per bus,
         as one transfer at a time holds it *)
  mutable q_seq : int;
  clocks : clocks;
  (* PCIe slowdown fault (Fault.Pcie_degrade): effective bandwidth is
     [caps.pcie_bps / factor] *)
  mutable factor : float;
  shed : Metrics.Counter.t;
  bytes : Metrics.Counter.t;
  (* the owners' own queued counts *)
  queued : 'o -> int;
  set_queued : 'o -> int -> unit;
  mutable on_shed : 'o list -> unit;
  (* request-granularity accounting ([stats]) *)
  mutable offered : int;
  mutable served : int;
  mutable q_peak : int;
}

let on_shed t f = t.on_shed <- f
let set_factor t f = t.factor <- f
let factor t = t.factor
let busy_seconds t = t.clocks.busy_s

let stats t =
  { o_offered = t.offered; o_completed = t.served;
    o_shed = int_of_float (Metrics.Counter.value t.shed);
    o_pending = t.q_len + (if t.busy then 1 else 0);
    o_queue_peak = t.q_peak }

(* Effective bandwidth; at the default factor 1 it returns the stored
   value instead of boxing a fresh float on every transfer. *)
let bandwidth t =
  let caps = Switch_model.caps t.sw in
  if t.factor = 1. then caps.pcie_bps else caps.pcie_bps /. t.factor

(* --- the priority queue ---

   With equal priorities the next transfer is the oldest, taken from the
   head in O(1), so an unbounded FIFO stays linear in its traffic.  Each
   owner's queued-request count is kept up to date on enqueue, pump and
   shed, so choosing a victim scans the queue without rebuilding any
   per-owner table. *)

let rec add_queued t d = function
  | [] -> ()
  | a :: rest ->
      t.set_queued a (t.queued a + d);
      add_queued t d rest

(* A request's fair-share weight: the most queued requests any of its
   owners holds.  A recursion, not a fold, whose closure over [t] would
   be allocated on every call. *)
let rec most_queued t acc = function
  | [] -> acc
  | a :: rest -> most_queued t (Int.max acc (t.queued a)) rest

let share t r = most_queued t 1 r.rq_owners

(* Index of the victim among the queue from [i] on and the candidate [v]
   at index [vi], whose share is [sv].  Shedding policy: lowest priority
   first; among those, the request whose owning seed holds the most
   queued requests (most over its fair share); ties shed the newest
   arrival, so the incoming request loses to equally guilty older ones.
   Deterministic: arrival numbers are unique.  The queued counts do not
   change during a scan, so each share is computed once. *)
let rec victim_index t i vi v sv =
  if i = t.q_head + t.q_len then vi
  else
    let r = t.queue.(i) in
    if r.rq_prio < v.rq_prio then victim_index t (i + 1) i r (share t r)
    else if r.rq_prio > v.rq_prio then victim_index t (i + 1) vi v sv
    else
      let sr = share t r in
      if sr > sv || (sr = sv && r.rq_seq > v.rq_seq) then
        victim_index t (i + 1) i r sr
      else victim_index t (i + 1) vi v sv

(* Fills the queue's free slots and the bus when idle, so that a served
   or shed request, and the subscriptions and seeds its closure holds,
   can be collected. *)
let no_req =
  { rq_seq = -1; rq_bytes = 0.; rq_issued = 0.; rq_prio = 0;
    rq_owners = []; rq_deliver = ignore }

let count_top t p =
  if p > t.q_top then begin
    t.q_top <- p;
    t.q_top_n <- 1
  end
  else if p = t.q_top then t.q_top_n <- t.q_top_n + 1

(* On reaching the end of the array, move the requests to the front if
   that frees at least half of it, else double it. *)
let queue_push t req =
  let cap = Array.length t.queue in
  if t.q_head + t.q_len = cap then begin
    let q =
      if cap > 0 && 2 * t.q_len <= cap then t.queue
      else Array.make (Int.max 8 (2 * cap)) no_req
    in
    Array.blit t.queue t.q_head q 0 t.q_len;
    if q == t.queue then Array.fill q t.q_len (cap - t.q_len) no_req;
    t.queue <- q;
    t.q_head <- 0
  end;
  t.queue.(t.q_head + t.q_len) <- req;
  t.q_len <- t.q_len + 1;
  count_top t req.rq_prio

let queue_remove t i =
  let r = t.queue.(i) in
  if i = t.q_head then begin
    t.queue.(i) <- no_req;
    t.q_head <- i + 1
  end
  else begin
    let last = t.q_head + t.q_len - 1 in
    Array.blit t.queue (i + 1) t.queue i (last - i);
    t.queue.(last) <- no_req
  end;
  t.q_len <- t.q_len - 1;
  add_queued t (-1) r.rq_owners;
  if r.rq_prio = t.q_top then begin
    t.q_top_n <- t.q_top_n - 1;
    if t.q_top_n = 0 then begin
      (* the last request of the top priority left: find the next one *)
      t.q_top <- min_int;
      for j = t.q_head to t.q_head + t.q_len - 1 do
        count_top t t.queue.(j).rq_prio
      done
    end
  end

(* Index of the oldest request of the highest priority, from [i] on. *)
let rec next_index t i =
  if t.queue.(i).rq_prio = t.q_top then i else next_index t (i + 1)

(* Put [next] on the idle bus.  Its duration is taken at the bandwidth in
   force when it starts, and its completion scheduled [dur] from now, so
   completion times are exact sums of durations. *)
let rec serve t next =
  t.busy <- true;
  t.on_bus <- next;
  let now = Engine.now t.engine in
  let dur = next.rq_bytes *. 8. /. bandwidth t in
  t.clocks.busy_s <- t.clocks.busy_s +. dur;
  (match Engine.tracer t.engine with
  | None -> ()
  | Some tr ->
      (* span covers queueing + transfer: from the request's arrival to
         bus completion *)
      Trace.span tr ~ts:next.rq_issued
        ~dur:(now +. dur -. next.rq_issued)
        ~cat:c_pcie ~name:(Trace.name tr n_transfer)
        ~tid:(Switch_model.id t.sw);
      Trace.arg_f tr k_bytes next.rq_bytes);
  Engine.schedule t.engine ~delay:dur t.finish

(* The transfer on the bus completes.  It is accounted now, so byte
   counters over a window reflect achieved (not queued) throughput. *)
and complete t engine =
  let next = t.on_bus in
  t.on_bus <- no_req;
  Metrics.Counter.add t.bytes next.rq_bytes;
  t.busy <- false;
  t.served <- t.served + 1;
  next.rq_deliver engine;
  pump t

and pump t =
  if (not t.busy) && t.q_len > 0 then begin
    let i = next_index t t.q_head in
    let next = t.queue.(i) in
    queue_remove t i;
    serve t next
  end

let create engine sw ~max_queue ~wait_cap ~shed ~bytes ~queued ~set_queued =
  let t =
    { engine; sw; max_queue; wait_cap; queue = [||]; q_head = 0; q_len = 0;
      q_top = min_int; q_top_n = 0; busy = false; on_bus = no_req;
      finish = ignore; q_seq = 0; clocks = { free_at = 0.; busy_s = 0. };
      factor = 1.; shed; bytes; queued; set_queued; on_shed = ignore;
      offered = 0; served = 0; q_peak = 0 }
  in
  t.finish <- complete t;
  t

let offer t ~bytes ~prio ~owners k =
  let now = Engine.now t.engine in
  let start = Float.max now t.clocks.free_at in
  if start -. now > t.wait_cap then false
  else begin
    t.clocks.free_at <- start +. (bytes *. 8. /. bandwidth t);
    t.offered <- t.offered + 1;
    let req =
      { rq_seq = t.q_seq; rq_bytes = bytes; rq_issued = now; rq_prio = prio;
        rq_owners = owners; rq_deliver = k }
    in
    t.q_seq <- t.q_seq + 1;
    add_queued t 1 owners;
    let accepted =
      if t.q_len < t.max_queue then begin
        (* an idle bus has an empty queue: the arrival goes straight on *)
        if t.busy then queue_push t req
        else (add_queued t (-1) owners; serve t req);
        true
      end
      else begin
        (* queue full: shed the least valuable request among the queue
           and the incoming one, which stands at index -1 *)
        let vi = victim_index t t.q_head (-1) req (share t req) in
        Metrics.Counter.incr t.shed;
        if vi < 0 then begin
          t.on_shed owners;
          add_queued t (-1) owners;
          false
        end
        else begin
          t.on_shed t.queue.(vi).rq_owners;
          queue_remove t vi;
          queue_push t req;
          true
        end
      end
    in
    let depth = t.q_len + if t.busy then 1 else 0 in
    if depth > t.q_peak then t.q_peak <- depth;
    pump t;
    accepted
  end
