module Engine = Farm_sim.Engine
module Metrics = Farm_sim.Metrics
module Trace = Farm_sim.Trace
module Filter = Farm_net.Filter
module Switch_model = Farm_net.Switch_model
module Tcam = Farm_net.Tcam

let c_soil = Trace.key "soil"
let c_ipc = Trace.key "soil.ipc"
let n_asic_poll = Trace.key "asic_poll"
let n_deliver = Trace.key "deliver"
let n_pressure_on = Trace.key "pressure_on"
let n_pressure_off = Trace.key "pressure_off"
let n_poll_shed = Trace.key "poll_shed"
let n_poll_dropped = Trace.key "poll_dropped"
let k_subject = Trace.key "subject"
let k_subs = Trace.key "subs"
let k_polls = Trace.key "polls"
let k_cpu = Trace.key "cpu"
let k_pcie = Trace.key "pcie"

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
   subject.  Without aggregation each poll subscription has a group of
   its own, outside [t.groups].  [g_owners] is the subscribers' seeds,
   one entry per subscriber, kept with [g_subs]; [g_bytes] is what one
   poll of the subject moves over the bus.  [g_name] is the subject as
   traced, formatted at the group's first traced poll. *)
type group = {
  g_subject : Filter.subject;
  mutable g_subs : subscription list;
  mutable g_owners : seed_acct list;
  g_bytes : float;
  mutable g_timer : Engine.timer option;
  mutable g_name : string;
}

(* One issued ASIC poll, from the read to the last delivery: the bus
   transfer and each subscriber's delivery refer to it. *)
type poll = {
  pl_issued : float;
  pl_data : float array;  (* the counters, read at issue *)
  pl_bytes : float;
  pl_subs : subscription list;  (* the group's subscribers at issue *)
}

type poll_stats = {
  requested : int;
  completed : int;
  dropped : int;
  pcie_bytes : float;
  asic_polls : int;
}

type overload_stats = Pcie.stats = {
  o_offered : int;
  o_completed : int;
  o_shed : int;
  o_pending : int;
  o_queue_peak : int;
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
  bus : seed_acct Pcie.t;
  (* poll accounting, published in the engine registry under
     [soil.<node>.*] *)
  requested : Metrics.Counter.t;
  completed : Metrics.Counter.t;
  dropped : Metrics.Counter.t;
  pcie_bytes : Metrics.Counter.t;
  asic_polls : Metrics.Counter.t;
  latency : Metrics.Histogram.t;
      (* seed-observed delivery latency: ASIC read issue -> handler *)
  (* pressure monitor *)
  mutable last_cpu : float;  (* monitor window baselines *)
  mutable last_pcie : float;
  mutable pressured : bool;
  mutable listener : node:int -> high:bool -> unit;  (* the seeder's *)
  pressure : Metrics.Gauge.t;
  (* counter fault injection (Fault.Counter_freeze / Counter_glitch) *)
  mutable frozen : bool;
  mutable frozen_cache : (Filter.subject * float array) list;
  mutable glitch_budget : int;
}

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
  let pcie_busy = Pcie.busy_seconds t.bus in
  let pcie_delta = pcie_busy -. t.last_pcie in
  t.last_pcie <- pcie_busy;
  let pcie_util = pcie_delta /. t.lim.pressure_interval in
  let high = cpu_util > t.lim.cpu_high || pcie_util > t.lim.pcie_high in
  let low = cpu_util < t.lim.cpu_low && pcie_util < t.lim.pcie_low in
  let flip on =
    match Engine.tracer t.engine with
    | None -> ()
    | Some tr ->
        Trace.instant tr ~ts:(Engine.now t.engine) ~cat:c_soil
          ~name:(Trace.name tr (if on then n_pressure_on else n_pressure_off))
          ~tid:(Switch_model.id t.sw);
        Trace.arg_f tr k_cpu cpu_util;
        Trace.arg_f tr k_pcie pcie_util
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
(* Overload protection: hooks, drop attribution, the PCIe bus         *)
(* ------------------------------------------------------------------ *)

let limits t = t.lim

let overload_stats t =
  if t.lim = unlimited then None else Some (Pcie.stats t.bus)

let set_pcie_factor t f =
  if f <= 0. then invalid_arg "Soil.set_pcie_factor: factor must be > 0";
  Pcie.set_factor t.bus f

let pcie_factor t = Pcie.factor t.bus

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
      Trace.instant tr ~ts:(Engine.now t.engine) ~cat:c_soil
        ~name:(Trace.name tr name) ~tid:(node_id t);
      Trace.arg_i tr k_polls n

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

(* At [unlimited] limits nothing is shed and no monitor runs; neither
   registers its metrics, so the registry is that of an unprotected soil. *)
let create ?(config = default_config) engine sw =
  let reg = Engine.metrics engine in
  let pre = Printf.sprintf "soil.%d." (Switch_model.id sw) in
  let c name = Metrics.Registry.counter reg (pre ^ name) in
  let lim = Option.value config.overload ~default:unlimited in
  let limited = lim <> unlimited in
  let pcie_bytes = c "pcie.bytes" in
  let t =
    { engine; sw; cfg = config; usage = Cpu_model.usage ();
      rng = Farm_sim.Rng.split (Engine.rng engine); seeds = Int_map.empty;
      regs = 0; groups = []; lim;
      bus =
        (* a bounded queue sheds instead of capping the wait *)
        Pcie.create engine sw ~max_queue:lim.max_pcie_queue
          ~wait_cap:(if limited then infinity else config.max_poll_queue_delay)
          ~shed:(if limited then c "polls.shed" else Metrics.Counter.create ())
          ~bytes:pcie_bytes ~queued:(fun a -> a.sa_queued)
          ~set_queued:(fun a n -> a.sa_queued <- n);
      requested = c "polls.requested"; completed = c "polls.completed";
      dropped = c "polls.dropped"; pcie_bytes; asic_polls = c "asic.polls";
      latency = Metrics.Registry.histogram reg (pre ^ "delivery_latency");
      last_cpu = 0.; last_pcie = 0.; pressured = false;
      listener = (fun ~node:_ ~high:_ -> ());
      pressure =
        (if limited then Metrics.Registry.gauge reg (pre ^ "pressure")
         else Metrics.Gauge.create ());
      frozen = false; frozen_cache = []; glitch_budget = 0 }
  in
  Pcie.on_shed t.bus (drop_polls t ~name:n_poll_shed);
  if limited then
    ignore
      (Engine.every engine ~period:lim.pressure_interval (fun _ ->
           pressure_tick t)
        : Engine.timer);
  t

let rec owners_priority acc = function
  | [] -> acc
  | a :: rest -> owners_priority (Int.max acc a.sa_prio) rest

(* Offer a transfer owned by [owners] (one entry per poll) to the bus; [k]
   runs when it completes.  Its priority is its owners' highest, or seed
   -1's for an ownerless transfer.  This is the one site that drops the
   polls of a refused transfer.  One the full queue sheds on arrival was
   already counted as [poll_shed] by the shed hook, and is counted again
   here as [poll_dropped]: ROADMAP item 8 counts it once, which moves
   probe-mix's digest. *)
let offer t ~bytes owners k =
  let prio =
    owners_priority
      (match owners with [] -> (acct t (-1)).sa_prio | _ -> min_int)
      owners
  in
  if not (Pcie.offer t.bus ~bytes ~prio ~owners k) then
    drop_polls t ~name:n_poll_dropped owners

let ipc_deliver t f =
  (* IPC latency depends on how many seeds are co-located (Fig. 10) *)
  let lat = Ipc.latency t.cfg.scheme t.cfg.exec_model ~seeds:(seed_count t) in
  charge_cpu t (Ipc.cpu_cost t.cfg.scheme t.cfg.exec_model);
  if t.cfg.exec_model = Ipc.Processes then
    charge_cpu t t.cfg.cpu.context_switch_cost;
  (match Engine.tracer t.engine with
  | None -> ()
  | Some tr ->
      Trace.span tr ~ts:(Engine.now t.engine) ~dur:lat ~cat:c_ipc
        ~name:(Trace.name tr n_deliver) ~tid:(Switch_model.id t.sw));
  Engine.schedule t.engine ~delay:lat f

(* ------------------------------------------------------------------ *)
(* Counter fault injection                                             *)
(* ------------------------------------------------------------------ *)

let set_frozen t on =
  t.frozen <- on;
  if not on then t.frozen_cache <- []

let glitch t = t.glitch_budget <- t.glitch_budget + 1

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
  offer t ~bytes (List.map (acct t) seeds) (fun _ -> k ())

(* IPC hands a poll's counters to one subscriber. *)
let deliver_poll t p deliver =
  Metrics.Histogram.record t.latency (Engine.now t.engine -. p.pl_issued);
  deliver p.pl_data

(* The poll's transfer completed: each subscriber still active pays its
   processing and gets the counters over IPC, in subscription order. *)
let rec poll_done t p records = function
  | [] -> ()
  | sub :: rest ->
      if sub.active then begin
        (* bulk counter reads are DMA'd: post-processing is cheap per
           record on top of the fixed per-poll cost *)
        charge_cpu t (t.cfg.cpu.poll_process_cost *. records /. 128.);
        charge_cpu t t.cfg.cpu.poll_process_cost;
        if t.cfg.aggregate_polls then charge_cpu t t.cfg.cpu.aggregation_cost;
        Metrics.Counter.incr t.completed;
        match sub.kind with
        | Poll q -> ipc_deliver t (fun _ -> deliver_poll t p q.deliver)
        | Probe _ | Time _ -> ()
      end;
      poll_done t p records rest

(* Issue one ASIC poll for [g]'s subject and deliver the result to its
   subscribers. *)
let issue_poll t g =
  let subs = g.g_subs in
  let issued = Engine.now t.engine in
  Metrics.Counter.add t.requested (float_of_int (List.length subs));
  charge_cpu t t.cfg.cpu.poll_issue_cost;
  Metrics.Counter.incr t.asic_polls;
  (match Engine.tracer t.engine with
  | None -> ()
  | Some tr ->
      if g.g_name = "" then
        g.g_name <- Format.asprintf "%a" Filter.pp_subject g.g_subject;
      Trace.instant tr ~ts:issued ~cat:c_soil ~name:(Trace.name tr n_asic_poll)
        ~tid:(Switch_model.id t.sw);
      Trace.arg_s tr k_subject (Trace.intern tr g.g_name);
      Trace.arg_i tr k_subs (List.length subs));
  (* the ASIC snapshots the counters when the read is issued; the data
     then crosses the PCIe bus *)
  let p =
    { pl_issued = issued; pl_data = read_counters t g.g_subject;
      pl_bytes = g.g_bytes; pl_subs = subs }
  in
  offer t ~bytes:p.pl_bytes g.g_owners (fun _ ->
      poll_done t p
        (Float.max 1. (p.pl_bytes /. counter_record_bytes))
        p.pl_subs)

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
          (Engine.every t.engine ~period (fun _ -> issue_poll t g))

let find_group t subject =
  List.find_opt (fun g -> Filter.subject_equal g.g_subject subject) t.groups

let set_subs g subs =
  g.g_subs <- subs;
  g.g_owners <- List.map (fun s -> s.sub_owner) subs

let new_group t subject subs =
  let g =
    { g_subject = subject; g_subs = []; g_owners = [];
      g_bytes = poll_payload t subject; g_timer = None; g_name = "" }
  in
  set_subs g subs;
  g

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
          let g = new_group t subject [] in
          t.groups <- g :: t.groups;
          g
    in
    set_subs g (sub :: g.g_subs);
    rearm_group t g
  end
  else begin
    let g = new_group t subject [ sub ] in
    sub.timer <- Some (Engine.every t.engine ~period (fun _ -> issue_poll t g))
  end;
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
        offer t ~bytes:(float_of_int pkt.size) owners (fun _ ->
            if sub.active then begin
              Metrics.Counter.incr t.completed;
              ipc_deliver t (fun _ -> deliver pkt)
            end)
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
          set_subs g (List.filter (fun s -> s != sub) g.g_subs);
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
