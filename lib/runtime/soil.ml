module Engine = Farm_sim.Engine
module Metrics = Farm_sim.Metrics
module Trace = Farm_sim.Trace
module Filter = Farm_net.Filter
module Switch_model = Farm_net.Switch_model
module Tcam = Farm_net.Tcam

(* Overload limits: past [max_pcie_queue] waiting transfers the PCIe queue
   sheds, and a monitor publishes CPU/PCIe pressure every interval.
   Protection off is the same code at [unlimited] limits. *)
type overload_config = {
  max_pcie_queue : int;  (* outstanding transfers before shedding *)
  cpu_high : float;  (* utilization watermarks, fraction of capacity *)
  cpu_low : float;
  pcie_high : float;
  pcie_low : float;
  pressure_interval : float;  (* monitor period, seconds *)
}

let default_overload =
  { max_pcie_queue = 16; cpu_high = 0.8; cpu_low = 0.5; pcie_high = 0.8;
    pcie_low = 0.5; pressure_interval = 0.05 }

let unlimited =
  { max_pcie_queue = max_int; cpu_high = infinity; cpu_low = neg_infinity;
    pcie_high = infinity; pcie_low = neg_infinity;
    pressure_interval = infinity }

type config = {
  cpu : Cpu_model.t;
  scheme : Ipc.scheme;
  exec_model : Ipc.exec_model;
  aggregate_polls : bool;
  max_poll_queue_delay : float;
  overload : overload_config option;
}

let default_config =
  { cpu = Cpu_model.default; scheme = Ipc.Shared_buffer;
    exec_model = Ipc.Threads; aggregate_polls = true;
    max_poll_queue_delay = 1.; overload = None }

type sub_kind =
  | Poll of { subject : Filter.subject; deliver : float array -> unit }
  | Probe of { filter : Filter.t; deliver : Farm_net.Flow.packet -> unit }
  | Time of (float -> unit)

module Int_map = Map.Make (Int)

(* One seed id, made on first mention: queue priority (default 0),
   requests in the PCIe queue (its fair share), the drop counter
   [soil.<node>.polls.dropped.seed<id>] (registered at the first drop),
   attached instances, and the hooks (no-ops until set and after a
   detach).  Queued requests still count against a detached seed. *)
type seed_acct = {
  sa_id : int;
  mutable sa_prio : int;
  mutable sa_queued : int;
  mutable sa_dropped : Metrics.Counter.t option;
  mutable sa_regs : int;
  mutable sa_on_drop : int -> unit;
  mutable sa_on_pressure : bool -> unit;
}

type subscription = {
  sub_owner : seed_acct;  (* for drop attribution and fair share *)
  kind : sub_kind;
  mutable period : float;
  mutable timer : Engine.timer option;
  mutable active : bool;
}

(* Aggregation group: one ASIC poll timer shared by all subscribers of a
   subject. *)
type group = {
  g_subject : Filter.subject;
  mutable g_subs : subscription list;
  mutable g_timer : Engine.timer option;
}

type poll_stats = {
  requested : int;
  completed : int;
  dropped : int;
  pcie_bytes : float;
  asic_polls : int;
}

type overload_stats = {
  o_offered : int;
  o_completed : int;
  o_shed : int;
  o_pending : int;
  o_queue_peak : int;
}

(* One PCIe transfer, waiting or on the bus. *)
type pcie_req = {
  rq_seq : int;  (* arrival order (newest = largest) *)
  rq_bytes : float;
  rq_issued : float;
  rq_prio : int;  (* max of the owning seeds' priorities *)
  rq_owners : seed_acct list;  (* owning seeds, one entry per poll *)
  rq_deliver : Engine.t -> unit;
}

(* Bus clocks; a float-only record, so per-transfer updates do not allocate. *)
type bus = {
  mutable free_at : float;  (* end of the FIFO backlog *)
  mutable busy_s : float;  (* accumulated bus-busy seconds *)
}

(* Interned trace ids for the hot emission sites, memoized per sink so
   steady-state tracing allocates nothing (subjects are formatted with
   [Filter.pp_subject] once, on first use, never per poll). *)
type tids = {
  tm_sink : Trace.t;
  tm_soil : int;  (* cat "soil" *)
  tm_pcie : int;  (* cat "soil.pcie" *)
  tm_ipc : int;  (* cat "soil.ipc" *)
  tm_asic_poll : int;
  tm_transfer : int;
  tm_deliver : int;
  tm_k_subject : int;
  tm_k_subs : int;
  tm_k_bytes : int;
  tm_k_polls : int;
  tm_pressure_on : int;
  tm_pressure_off : int;
  tm_k_cpu : int;
  tm_k_pcie : int;
  tm_subjects : (Filter.subject, int) Hashtbl.t;
}

type t = {
  engine : Engine.t;
  sw : Switch_model.t;
  cfg : config;
  usage : Cpu_model.usage;
  rng : Farm_sim.Rng.t;
  mutable seeds : seed_acct Int_map.t;  (* by seed id *)
  mutable regs : int;  (* attached instances, all seeds *)
  mutable groups : group list;
  lim : overload_config;  (* [config.overload], or [unlimited] *)
  (* PCIe bus: the waiting transfers, oldest first, in [q_len] slots from
     [q_head]; the highest priority among them and how many hold it; and
     whether one is on the bus *)
  mutable queue : pcie_req array;
  mutable q_head : int;
  mutable q_len : int;
  mutable q_top : int;
  mutable q_top_n : int;
  mutable busy : bool;
  mutable q_seq : int;
  (* arrival-time wait cap: [config.max_poll_queue_delay] at unlimited
     limits, where the queue is a FIFO whose backlog ends at
     [bus.free_at]; infinite under a bounded queue, which sheds instead *)
  wait_cap : float;
  bus : bus;
  (* PCIe slowdown fault (Fault.Pcie_degrade): effective bandwidth is
     [caps.pcie_bps / pcie_factor] *)
  mutable pcie_factor : float;
  (* poll accounting, published in the engine registry under
     [soil.<node>.*] *)
  requested : Metrics.Counter.t;
  completed : Metrics.Counter.t;
  dropped : Metrics.Counter.t;
  pcie_bytes : Metrics.Counter.t;
  asic_polls : Metrics.Counter.t;
  latency : Metrics.Histogram.t;
      (* seed-observed delivery latency: ASIC read issue -> handler *)
  (* request-granularity queue accounting ([overload_stats]) *)
  mutable offered : int;
  mutable served : int;
  mutable q_peak : int;
  (* pressure monitor *)
  mutable last_cpu : float;  (* monitor window baselines *)
  mutable last_pcie : float;
  mutable pressured : bool;
  mutable listener : node:int -> high:bool -> unit;  (* the seeder's *)
  shed : Metrics.Counter.t;
  pressure : Metrics.Gauge.t;
  (* counter fault injection (Fault.Counter_freeze / Counter_glitch) *)
  mutable frozen : bool;
  mutable frozen_cache : (Filter.subject * float array) list;
  mutable glitch_budget : int;
  mutable tmemo : tids option;
}

(* Memoized interned ids for [tr]; rebuilt only if the sink changes. *)
let tids t tr =
  match t.tmemo with
  | Some m when m.tm_sink == tr -> m
  | _ ->
      let m =
        { tm_sink = tr;
          tm_soil = Trace.label tr "soil";
          tm_pcie = Trace.label tr "soil.pcie";
          tm_ipc = Trace.label tr "soil.ipc";
          tm_asic_poll = Trace.intern tr "asic_poll";
          tm_transfer = Trace.intern tr "transfer";
          tm_deliver = Trace.intern tr "deliver";
          tm_k_subject = Trace.label tr "subject";
          tm_k_subs = Trace.label tr "subs";
          tm_k_bytes = Trace.label tr "bytes";
          tm_k_polls = Trace.label tr "polls";
          tm_pressure_on = Trace.intern tr "pressure_on";
          tm_pressure_off = Trace.intern tr "pressure_off";
          tm_k_cpu = Trace.label tr "cpu";
          tm_k_pcie = Trace.label tr "pcie";
          tm_subjects = Hashtbl.create 8 }
      in
      t.tmemo <- Some m;
      m

let subject_sid m subject =
  match Hashtbl.find_opt m.tm_subjects subject with
  | Some id -> id
  | None ->
      let id =
        Trace.intern m.tm_sink (Format.asprintf "%a" Filter.pp_subject subject)
      in
      Hashtbl.add m.tm_subjects subject id;
      id

(* --- pressure monitor (armed only under finite limits) --- *)

let pressure_tick t =
  let cores = t.cfg.cpu.cores in
  let busy = Cpu_model.busy_seconds t.usage in
  (* a [reset_stats] between ticks rewinds the busy clock; fall back to
     the absolute value so the delta never goes negative *)
  let cpu_delta =
    if busy >= t.last_cpu then busy -. t.last_cpu else busy
  in
  t.last_cpu <- busy;
  let cpu_util = cpu_delta /. (t.lim.pressure_interval *. cores) in
  let pcie_delta = t.bus.busy_s -. t.last_pcie in
  t.last_pcie <- t.bus.busy_s;
  let pcie_util = pcie_delta /. t.lim.pressure_interval in
  let high = cpu_util > t.lim.cpu_high || pcie_util > t.lim.pcie_high in
  let low = cpu_util < t.lim.cpu_low && pcie_util < t.lim.pcie_low in
  let flip on =
    match Engine.tracer t.engine with
    | None -> ()
    | Some tr ->
        let m = tids t tr in
        Trace.instant tr ~ts:(Engine.now t.engine) ~cat:m.tm_soil
          ~name:(if on then m.tm_pressure_on else m.tm_pressure_off)
          ~tid:(Switch_model.id t.sw);
        Trace.arg_f tr m.tm_k_cpu cpu_util;
        Trace.arg_f tr m.tm_k_pcie pcie_util
  in
  if high && not t.pressured then begin
    t.pressured <- true;
    Metrics.Gauge.set t.pressure 1.;
    flip true
  end
  else if low && t.pressured then begin
    t.pressured <- false;
    Metrics.Gauge.set t.pressure 0.;
    flip false
  end;
  (* every high tick backs attached seeds off multiplicatively, in id order;
     every low tick recovers them additively (no-op at full fidelity) *)
  if high || low then begin
    Int_map.iter
      (fun _ a -> if a.sa_regs > 0 then a.sa_on_pressure high)
      t.seeds;
    t.listener ~node:(Switch_model.id t.sw) ~high
  end

(* At [unlimited] limits nothing is shed and no monitor runs; neither
   registers its metrics, so the registry is that of an unprotected soil. *)
let create ?(config = default_config) engine sw =
  let reg = Engine.metrics engine in
  let pre = Printf.sprintf "soil.%d." (Switch_model.id sw) in
  let c name = Metrics.Registry.counter reg (pre ^ name) in
  let lim = Option.value config.overload ~default:unlimited in
  let limited = lim <> unlimited in
  let t =
    { engine; sw; cfg = config; usage = Cpu_model.usage ();
      rng = Farm_sim.Rng.split (Engine.rng engine); seeds = Int_map.empty;
      regs = 0; groups = []; lim; queue = [||]; q_head = 0; q_len = 0;
      q_top = min_int; q_top_n = 0; busy = false; q_seq = 0;
      wait_cap = (if limited then infinity else config.max_poll_queue_delay);
      bus = { free_at = 0.; busy_s = 0. }; pcie_factor = 1.;
      requested = c "polls.requested"; completed = c "polls.completed";
      dropped = c "polls.dropped"; pcie_bytes = c "pcie.bytes";
      asic_polls = c "asic.polls";
      latency = Metrics.Registry.histogram reg (pre ^ "delivery_latency");
      offered = 0; served = 0; q_peak = 0;
      last_cpu = 0.; last_pcie = 0.; pressured = false;
      listener = (fun ~node:_ ~high:_ -> ());
      shed =
        (if limited then c "polls.shed" else Metrics.Counter.create ());
      pressure =
        (if limited then Metrics.Registry.gauge reg (pre ^ "pressure")
         else Metrics.Gauge.create ());
      frozen = false; frozen_cache = []; glitch_budget = 0; tmemo = None }
  in
  if limited then
    ignore
      (Engine.every engine ~period:lim.pressure_interval (fun _ ->
           pressure_tick t)
        : Engine.timer);
  t

let node_id t = Switch_model.id t.sw
let switch t = t.sw
let config t = t.cfg
let now t = Engine.now t.engine
let engine t = t.engine

let acct t seed_id =
  match Int_map.find_opt seed_id t.seeds with
  | Some a -> a
  | None ->
      let a =
        { sa_id = seed_id; sa_prio = 0; sa_queued = 0; sa_dropped = None;
          sa_regs = 0; sa_on_drop = ignore; sa_on_pressure = ignore }
      in
      t.seeds <- Int_map.add seed_id a t.seeds;
      a

let attach_seed t id =
  let a = acct t id in
  a.sa_regs <- a.sa_regs + 1;
  t.regs <- t.regs + 1

(* one registration goes; the hooks and priority go even if another stays *)
let detach_seed t id =
  let a = acct t id in
  if a.sa_regs > 0 then (a.sa_regs <- a.sa_regs - 1; t.regs <- t.regs - 1);
  a.sa_on_drop <- ignore;
  a.sa_on_pressure <- ignore;
  a.sa_prio <- 0

let seed_count t = t.regs

let charge_cpu t s = Cpu_model.charge t.usage s
let cpu t = t.usage

let cpu_load t ~window = Cpu_model.offered_load t.usage ~window
let cpu_accuracy t ~window = Cpu_model.accuracy t.cfg.cpu t.usage ~window

(* Bytes a poll of [subject] moves over the PCIe bus: 16 B per hardware
   counter read (id + 64-bit value + framing). *)
let counter_record_bytes = 16.

(* The resource-bound pass prices a seed as a soil in [default_config]
   charges it.  The last five fields are the pass's own assumptions
   about what it cannot see statically. *)
let bounds_model =
  let c = default_config.cpu in
  { Farm_almanac.Bounds.cores = c.cores; poll_issue_cost = c.poll_issue_cost;
    poll_process_cost = c.poll_process_cost;
    handler_base_cost = c.handler_base_cost; sample_cost = c.sample_cost;
    aggregation_cost = c.aggregation_cost;
    ipc_cpu_cost = Ipc.cpu_cost default_config.scheme default_config.exec_model;
    counter_record_bytes; probe_packet_bytes = 1500.; port_count = 32;
    loop_bound = 64; scalar_bytes = 64.; list_bytes = 1024. }

let poll_payload t = function
  | Filter.All_ports ->
      float_of_int (Switch_model.port_count t.sw) *. counter_record_bytes
  | Filter.Port_counter _ | Filter.Prefix_counter _ | Filter.Proto_counter _
    ->
      counter_record_bytes

(* ------------------------------------------------------------------ *)
(* Overload protection: hooks, drop attribution, the PCIe queue        *)
(* ------------------------------------------------------------------ *)

let limits t = t.lim

let overload_stats t =
  if t.lim = unlimited then None
  else
    Some
      { o_offered = t.offered; o_completed = t.served;
        o_shed = int_of_float (Metrics.Counter.value t.shed);
        o_pending = t.q_len + (if t.busy then 1 else 0);
        o_queue_peak = t.q_peak }

let set_pcie_factor t f =
  if f <= 0. then invalid_arg "Soil.set_pcie_factor: factor must be > 0";
  t.pcie_factor <- f

let pcie_factor t = t.pcie_factor

(* Effective PCIe bandwidth; at the default factor 1 it returns the stored
   value instead of boxing a fresh float on every transfer. *)
let effective_pcie_bps t =
  let caps = Switch_model.caps t.sw in
  if t.pcie_factor = 1. then caps.pcie_bps else caps.pcie_bps /. t.pcie_factor

let on_poll_drop t ~seed_id f = (acct t seed_id).sa_on_drop <- f

let set_seed_priority t ~seed_id prio = (acct t seed_id).sa_prio <- prio

let on_pressure t ~seed_id f =
  (acct t seed_id).sa_on_pressure <- (fun high -> f ~high)

let set_pressure_listener t f = t.listener <- f

(* Per-seed drop attribution + synchronous drop notification; runs inline
   (no engine events), so runs without drops stay byte-identical. *)
let record_seed_drop t a n =
  let ctr =
    match a.sa_dropped with
    | Some c -> c
    | None ->
        let c =
          Metrics.Registry.counter (Engine.metrics t.engine)
            (Printf.sprintf "soil.%d.polls.dropped.seed%d" (node_id t) a.sa_id)
        in
        a.sa_dropped <- Some c;
        c
  in
  Metrics.Counter.add ctr (float_of_int n);
  a.sa_on_drop n

let trace_drop t ~name ~n =
  match Engine.tracer t.engine with
  | None -> ()
  | Some tr ->
      let m = tids t tr in
      Trace.instant tr ~ts:(Engine.now t.engine) ~cat:m.tm_soil
        ~name:(Trace.intern tr name) ~tid:(node_id t);
      Trace.arg_i tr m.tm_k_polls n

(* A poll (or probe sample) owned by [owners] was dropped: count globally,
   attribute per seed and notify the owners, in seed-id order. *)
let drop_polls t ~name owners =
  let n = List.length owners in
  Metrics.Counter.add t.dropped (float_of_int n);
  trace_drop t ~name ~n;
  match owners with
  | [ a ] -> record_seed_drop t a 1
  | _ ->
      let count = function Some n -> Some (n + 1) | None -> Some 1 in
      List.fold_left
        (fun m a -> Int_map.update a.sa_id count m)
        Int_map.empty owners
      |> Int_map.iter (fun id n -> record_seed_drop t (acct t id) n)

(* --- the priority queue over the PCIe bus ---

   With equal priorities the next transfer is the oldest, taken from the
   head in O(1), so an unbounded FIFO stays linear in its traffic.  Each
   seed's queued-request count is kept up to date on enqueue, pump and
   shed, so choosing a victim scans the queue without rebuilding any
   per-seed table. *)

let rec add_queued d = function
  | [] -> ()
  | a :: rest ->
      a.sa_queued <- a.sa_queued + d;
      add_queued d rest

(* A request's fair-share weight: the most queued requests any of its
   owners holds. *)
let share r =
  List.fold_left (fun acc a -> Int.max acc a.sa_queued) 1 r.rq_owners

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
    if r.rq_prio < v.rq_prio then victim_index t (i + 1) i r (share r)
    else if r.rq_prio > v.rq_prio then victim_index t (i + 1) vi v sv
    else
      let sr = share r in
      if sr > sv || (sr = sv && r.rq_seq > v.rq_seq) then
        victim_index t (i + 1) i r sr
      else victim_index t (i + 1) vi v sv

(* Fills the queue's free slots, so that a served or shed request, and the
   subscriptions and seeds its closure holds, can be collected. *)
let no_req =
  { rq_seq = -1; rq_bytes = 0.; rq_issued = 0.; rq_prio = 0; rq_owners = [];
    rq_deliver = ignore }

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
  add_queued (-1) r.rq_owners;
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
  let now = Engine.now t.engine in
  let dur = next.rq_bytes *. 8. /. effective_pcie_bps t in
  t.bus.busy_s <- t.bus.busy_s +. dur;
  (match Engine.tracer t.engine with
  | None -> ()
  | Some tr ->
      (* span covers queueing + transfer: from the request's arrival to
         bus completion *)
      let m = tids t tr in
      Trace.span tr ~ts:next.rq_issued
        ~dur:(now +. dur -. next.rq_issued)
        ~cat:m.tm_pcie ~name:m.tm_transfer ~tid:(node_id t);
      Trace.arg_f tr m.tm_k_bytes next.rq_bytes);
  Engine.schedule t.engine ~delay:dur (fun engine ->
      (* account the transfer when it completes, so byte counters over
         a window reflect achieved (not queued) throughput *)
      Metrics.Counter.add t.pcie_bytes next.rq_bytes;
      t.busy <- false;
      t.served <- t.served + 1;
      next.rq_deliver engine;
      pump t)

and pump t =
  if (not t.busy) && t.q_len > 0 then begin
    let i = next_index t t.q_head in
    let next = t.queue.(i) in
    queue_remove t i;
    serve t next
  end

let rec owners_priority acc = function
  | [] -> acc
  | a :: rest -> owners_priority (Int.max acc a.sa_prio) rest

(* Schedule a transfer over the PCIe bus; calls [k] at completion, or
   returns [false] when the transfer is refused on arrival: it would wait
   longer than the wait cap, or the full queue sheds it at once.  [owners]
   own the transfer (one entry per poll) and set its priority and fair
   share.  A request the queue sheds, on arrival or later, is counted as
   a drop of its owners' polls here. *)
let pcie_transfer t ~bytes ~owners k =
  let now = Engine.now t.engine in
  let start = Float.max now t.bus.free_at in
  if start -. now > t.wait_cap then false
  else begin
    t.bus.free_at <- start +. (bytes *. 8. /. effective_pcie_bps t);
    t.offered <- t.offered + 1;
    let prio =
      owners_priority
        (match owners with [] -> (acct t (-1)).sa_prio | _ -> min_int)
        owners
    in
    let req =
      { rq_seq = t.q_seq; rq_bytes = bytes; rq_issued = now; rq_prio = prio;
        rq_owners = owners; rq_deliver = k }
    in
    t.q_seq <- t.q_seq + 1;
    add_queued 1 owners;
    let accepted =
      if t.q_len < t.lim.max_pcie_queue then begin
        (* an idle bus has an empty queue: the arrival goes straight on *)
        if t.busy then queue_push t req
        else (add_queued (-1) owners; serve t req);
        true
      end
      else begin
        (* queue full: shed the least valuable request among the queue and
           the incoming one, which stands at index -1 *)
        let vi = victim_index t t.q_head (-1) req (share req) in
        Metrics.Counter.incr t.shed;
        if vi < 0 then begin
          drop_polls t ~name:"poll_shed" owners;
          add_queued (-1) owners;
          false
        end
        else begin
          drop_polls t ~name:"poll_shed" t.queue.(vi).rq_owners;
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

let ipc_deliver ?issued t f =
  (* IPC latency depends on how many seeds are co-located (Fig. 10) *)
  let lat = Ipc.latency t.cfg.scheme t.cfg.exec_model ~seeds:(seed_count t) in
  charge_cpu t (Ipc.cpu_cost t.cfg.scheme t.cfg.exec_model);
  if t.cfg.exec_model = Ipc.Processes then
    charge_cpu t t.cfg.cpu.context_switch_cost;
  (match Engine.tracer t.engine with
  | None -> ()
  | Some tr ->
      let m = tids t tr in
      Trace.span tr ~ts:(Engine.now t.engine) ~dur:lat ~cat:m.tm_ipc
        ~name:m.tm_deliver ~tid:(Switch_model.id t.sw));
  Engine.schedule t.engine ~delay:lat (fun engine ->
      (match issued with
      | Some t0 ->
          Metrics.Histogram.record t.latency (Engine.now engine -. t0)
      | None -> ());
      f ())

(* ------------------------------------------------------------------ *)
(* Counter fault injection                                             *)
(* ------------------------------------------------------------------ *)

let set_frozen t on =
  t.frozen <- on;
  if not on then t.frozen_cache <- []

let glitch ?(polls = 1) t = t.glitch_budget <- t.glitch_budget + polls

(* ASIC counter read, possibly degraded: while frozen, every subject keeps
   returning the snapshot taken at freeze time; a pending glitch corrupts
   one read with deterministic garbage drawn from the soil's rng. *)
let read_counters t subject =
  let data =
    if t.frozen then
      match
        List.find_opt
          (fun (s, _) -> Filter.subject_equal s subject)
          t.frozen_cache
      with
      | Some (_, d) -> Array.copy d
      | None ->
          let d =
            Switch_model.poll_subject t.sw ~time:(Engine.now t.engine) subject
          in
          t.frozen_cache <- (subject, Array.copy d) :: t.frozen_cache;
          d
    else Switch_model.poll_subject t.sw ~time:(Engine.now t.engine) subject
  in
  if t.glitch_budget > 0 then begin
    t.glitch_budget <- t.glitch_budget - 1;
    Array.map
      (fun v -> Farm_sim.Rng.uniform t.rng 0. (Float.max (2. *. v) 1e9))
      data
  end
  else data

let transfer t ~bytes ~seeds k =
  let owners = List.map (acct t) seeds in
  if not (pcie_transfer t ~bytes ~owners (fun _ -> k ())) then
    drop_polls t ~name:"poll_dropped" owners

(* Issue one ASIC poll for [subject] and deliver the result to [subs]. *)
let issue_poll t subject subs =
  let issued = Engine.now t.engine in
  Metrics.Counter.add t.requested (float_of_int (List.length subs));
  charge_cpu t t.cfg.cpu.poll_issue_cost;
  Metrics.Counter.incr t.asic_polls;
  (match Engine.tracer t.engine with
  | None -> ()
  | Some tr ->
      let m = tids t tr in
      Trace.instant tr ~ts:issued ~cat:m.tm_soil ~name:m.tm_asic_poll
        ~tid:(Switch_model.id t.sw);
      Trace.arg_s tr m.tm_k_subject (subject_sid m subject);
      Trace.arg_i tr m.tm_k_subs (List.length subs));
  let bytes = poll_payload t subject in
  (* the ASIC snapshots the counters when the read is issued; the data
     then crosses the PCIe bus *)
  let data = read_counters t subject in
  let owners = List.map (fun s -> s.sub_owner) subs in
  let ok =
    pcie_transfer t ~bytes ~owners (fun _engine ->
        let records = Float.max 1. (bytes /. counter_record_bytes) in
        List.iter
          (fun sub ->
            if sub.active then begin
              (* bulk counter reads are DMA'd: post-processing is cheap
                 per record on top of the fixed per-poll cost *)
              charge_cpu t (t.cfg.cpu.poll_process_cost *. records /. 128.);
              charge_cpu t t.cfg.cpu.poll_process_cost;
              if t.cfg.aggregate_polls then
                charge_cpu t t.cfg.cpu.aggregation_cost;
              Metrics.Counter.incr t.completed;
              match sub.kind with
              | Poll p -> ipc_deliver ~issued t (fun () -> p.deliver data)
              | Probe _ | Time _ -> ()
            end)
          subs)
  in
  if not ok then drop_polls t ~name:"poll_dropped" owners

(* ------------------------------------------------------------------ *)
(* Aggregated polling groups                                           *)
(* ------------------------------------------------------------------ *)

let group_period g =
  List.fold_left
    (fun acc s -> Float.min acc s.period)
    infinity g.g_subs

let rearm_group t g =
  (match g.g_timer with Some tm -> Engine.cancel tm | None -> ());
  match g.g_subs with
  | [] -> g.g_timer <- None
  | _ ->
      let period = group_period g in
      g.g_timer <-
        Some
          (Engine.every t.engine ~period (fun _ ->
               issue_poll t g.g_subject g.g_subs))

let find_group t subject =
  List.find_opt (fun g -> Filter.subject_equal g.g_subject subject) t.groups

let fresh_sub t ~seed_id ~period kind =
  { sub_owner = acct t seed_id; kind; period; timer = None; active = true }

let subscribe_poll t ~seed_id ~subject ~period deliver =
  Switch_model.watch_subject t.sw ~time:(Engine.now t.engine) subject;
  let sub = fresh_sub t ~seed_id ~period (Poll { subject; deliver }) in
  if t.cfg.aggregate_polls then begin
    let g =
      match find_group t subject with
      | Some g -> g
      | None ->
          let g = { g_subject = subject; g_subs = []; g_timer = None } in
          t.groups <- g :: t.groups;
          g
    in
    g.g_subs <- sub :: g.g_subs;
    rearm_group t g
  end
  else
    sub.timer <-
      Some
        (Engine.every t.engine ~period (fun _ -> issue_poll t subject [ sub ]));
  sub

let subscribe_probe t ~seed_id ~filter ~period deliver =
  let sub = fresh_sub t ~seed_id ~period (Probe { filter; deliver }) in
  let owners = [ sub.sub_owner ] in
  let tick _ =
    (* sampling mirrors one packet over the PCIe bus *)
    Metrics.Counter.incr t.requested;
    match Switch_model.sample_packet t.sw t.rng with
    | Some pkt when Filter.matches filter pkt.tuple ->
        charge_cpu t t.cfg.cpu.sample_cost;
        let ok =
          pcie_transfer t ~bytes:(float_of_int pkt.size) ~owners (fun _ ->
              if sub.active then begin
                Metrics.Counter.incr t.completed;
                ipc_deliver t (fun () -> deliver pkt)
              end)
        in
        if not ok then drop_polls t ~name:"poll_dropped" owners
    | Some _ | None -> ()
  in
  sub.timer <- Some (Engine.every t.engine ~period tick);
  sub

let subscribe_time t ~seed_id ~period callback =
  let sub = fresh_sub t ~seed_id ~period (Time callback) in
  sub.timer <-
    Some
      (Engine.every t.engine ~period (fun engine ->
           if sub.active then begin
             charge_cpu t t.cfg.cpu.handler_base_cost;
             callback (Engine.now engine)
           end));
  sub

let set_period t sub period =
  sub.period <- period;
  (match sub.timer with Some tm -> Engine.set_period tm period | None -> ());
  if t.cfg.aggregate_polls then
    match sub.kind with
    | Poll p -> (
        match find_group t p.subject with
        | Some g -> rearm_group t g
        | None -> ())
    | Probe _ | Time _ -> ()

let cancel t sub =
  sub.active <- false;
  (match sub.timer with Some tm -> Engine.cancel tm | None -> ());
  match sub.kind with
  | Poll p when t.cfg.aggregate_polls -> (
      match find_group t p.subject with
      | Some g ->
          g.g_subs <- List.filter (fun s -> s != sub) g.g_subs;
          rearm_group t g
      | None -> ())
  | Poll _ | Probe _ | Time _ -> ()

(* ------------------------------------------------------------------ *)
(* TCAM                                                                *)
(* ------------------------------------------------------------------ *)

let add_tcam_rule t rule =
  charge_cpu t t.cfg.cpu.handler_base_cost;
  match
    Switch_model.add_rule t.sw ~time:(Engine.now t.engine) Tcam.Monitoring
      rule
  with
  | Ok _ -> Ok ()
  | Error `Full -> Error `Full

let remove_tcam_rule t ~pattern =
  charge_cpu t t.cfg.cpu.handler_base_cost;
  Switch_model.remove_rule t.sw ~time:(Engine.now t.engine) Tcam.Monitoring
    ~pattern

let get_tcam_rule t ~pattern =
  Tcam.find (Switch_model.tcam t.sw) Tcam.Monitoring ~pattern

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let poll_stats t =
  let i c = int_of_float (Metrics.Counter.value c) in
  { requested = i t.requested; completed = i t.completed;
    dropped = i t.dropped; pcie_bytes = Metrics.Counter.value t.pcie_bytes;
    asic_polls = i t.asic_polls }

let delivery_latency t = t.latency

let reset_stats t =
  Metrics.Histogram.reset t.latency;
  Metrics.Counter.reset t.requested;
  Metrics.Counter.reset t.completed;
  Metrics.Counter.reset t.dropped;
  Metrics.Counter.reset t.pcie_bytes;
  Metrics.Counter.reset t.asic_polls;
  Cpu_model.reset t.usage
