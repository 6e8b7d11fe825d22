module Trace = Farm_sim.Trace
module Value = Farm_almanac.Value

let c_harvester = Trace.key "harvester"
let n_report = Trace.key "report"
let n_report_shed = Trace.key "report_shed"
let n_report_dropped = Trace.key "report_dropped"

type ctx = {
  send_to_seed : switch:int -> Value.t -> unit;
  broadcast : Value.t -> unit;
  now : unit -> float;
  log : string -> unit;
}

type spec = {
  on_start : ctx -> unit;
  on_message : ctx -> from_switch:int -> Value.t -> unit;
}

let collector_spec =
  { on_start = (fun _ -> ()); on_message = (fun _ ~from_switch:_ _ -> ()) }

type provenance = { p_seed : int; p_epoch : int; p_seq : int }

(* The inbox: at most [max_reports] admitted per rolling [window], split
   fairly across the reporting seeds; a seed over its share is shed
   first.  Protection off is the same inbox at [unlimited] limits. *)
type overload_config = { window : float; max_reports : int }

let default_overload = { window = 0.1; max_reports = 64 }
let unlimited = { window = infinity; max_reports = max_int }

(* The accounting the registry's gauges read: a record of its own, so
   the gauges of an undeployed task keep these counters alive and not
   the harvester (its spec, context and [seen] tables). *)
type counters = {
  mutable n_received : int;  (* = List.length log, kept O(1) *)
  mutable stale_dropped : int;
  mutable dup_dropped : int;
  mutable n_offered : int;
  mutable n_shed : int;
}

module Int_map = Map.Make (Int)

(* One seed.  [fence] is the minimum epoch whose reports are valid (-1
   until the first fence); the seeder raises it whenever it
   (re)instantiates the seed, so a zombie instance left behind by a false
   failure detection, or a message in flight from before a migration,
   cannot corrupt task state. *)
type seed = {
  mutable fence : int;
  seen : (int, unit) Hashtbl.t;  (* accepted seqs of the fence epoch *)
  mutable admits : int;  (* admitted in window number [admits_window] *)
  mutable admits_window : int;
}

type t = {
  spec : spec;
  ctx : ctx;
  mutable log : (float * int * Value.t) list;
  mutable seeds : seed Int_map.t;  (* by seed id *)
  mutable fenced : int;  (* seeds whose fence is set *)
  mutable prov_log : (float * provenance) list;  (* accepted, newest first *)
  counts : counters;
  mutable tracer : unit -> Trace.t option;  (* the engine's sink *)
  mutable lim : overload_config;
  mutable window_start : float;
  mutable window : int;  (* windows opened so far *)
}

let create spec ctx =
  { spec; ctx; log = []; seeds = Int_map.empty; fenced = 0; prov_log = [];
    counts =
      { n_received = 0; stale_dropped = 0; dup_dropped = 0; n_offered = 0;
        n_shed = 0 };
    tracer = (fun () -> None); lim = unlimited; window_start = 0.; window = 0 }

let set_tracer t tr = t.tracer <- tr

let open_window t now =
  t.window_start <- now;
  t.window <- t.window + 1

let set_overload t lim =
  t.lim <- lim;
  open_window t (t.ctx.now ())

let admits t s = if s.admits_window = t.window then s.admits else 0

let window_admits t =
  let admitted _ s = match admits t s with 0 -> None | n -> Some n in
  if t.lim = unlimited then []
  else Int_map.bindings (Int_map.filter_map admitted t.seeds)

let seed t seed_id =
  match Int_map.find_opt seed_id t.seeds with
  | Some s -> s
  | None ->
      (* [seen] starts small: every placed seed keeps one for as long as
         it is deployed, and most detectors report rarely *)
      let s =
        { fence = -1; seen = Hashtbl.create 8; admits = 0; admits_window = 0 }
      in
      t.seeds <- Int_map.add seed_id s t.seeds;
      s

let metrics_register t reg ~prefix =
  let c = t.counts in
  let g name f =
    Farm_sim.Metrics.Registry.gauge_fn reg (prefix ^ name)
      (fun () -> float_of_int (f ()))
  in
  g "received" (fun () -> c.n_received);
  g "stale_dropped" (fun () -> c.stale_dropped);
  g "dup_dropped" (fun () -> c.dup_dropped);
  (* an unlimited inbox never sheds and does not publish shed metrics *)
  if t.lim <> unlimited then begin
    g "offered" (fun () -> c.n_offered);
    g "shed" (fun () -> c.n_shed)
  end

let start t = t.spec.on_start t.ctx

let raise_fence t s epoch =
  if epoch > s.fence then begin
    if s.fence < 0 then t.fenced <- t.fenced + 1;
    s.fence <- epoch;
    Hashtbl.reset s.seen
  end

let fence t ~seed_id ~epoch = raise_fence t (seed t seed_id) epoch

(* Admission control: drop stale-epoch reports, dedup (seed, epoch, seq).
   Reports from an epoch *newer* than the fence are accepted and raise the
   fence — the instantiate-side fence call and the first report race over
   the control channel, and both orders must converge. *)
let admit t s p =
  if p.p_epoch < s.fence then begin
    t.counts.stale_dropped <- t.counts.stale_dropped + 1;
    false
  end
  else begin
    raise_fence t s p.p_epoch;
    if Hashtbl.mem s.seen p.p_seq then begin
      t.counts.dup_dropped <- t.counts.dup_dropped + 1;
      false
    end
    else begin
      Hashtbl.replace s.seen p.p_seq ();
      true
    end
  end

(* Fair-share inbox shedding: a fresh (non-stale, non-dup) report is shed
   when its seed has used up its slice of this window's budget.  Purely a
   function of (sim time, admitted history) — deterministic.  At
   [unlimited] limits the window never closes and no share is ever used
   up. *)
let shed_check t s =
  let now = t.ctx.now () in
  if now -. t.window_start >= t.lim.window then open_window t now;
  let share = max 1 (t.lim.max_reports / max 1 t.fenced) in
  let used = admits t s in
  if used >= share then begin
    t.counts.n_shed <- t.counts.n_shed + 1;
    true
  end
  else begin
    s.admits <- used + 1;
    s.admits_window <- t.window;
    false
  end

let handle ~provenance:p t ~from_switch v =
  t.counts.n_offered <- t.counts.n_offered + 1;
  let s = seed t p.p_seed in
  let accept = admit t s p in
  let shed = accept && shed_check t s in
  let accept = accept && not shed in
  (match t.tracer () with
  | None -> ()
  | Some tr ->
      Trace.instant tr ~ts:(t.ctx.now ()) ~cat:c_harvester
        ~name:
          (Trace.name tr
             (if shed then n_report_shed
              else if accept then n_report
              else n_report_dropped))
        ~tid:from_switch);
  if accept then begin
    t.prov_log <- (t.ctx.now (), p) :: t.prov_log;
    t.log <- (t.ctx.now (), from_switch, v) :: t.log;
    t.counts.n_received <- t.counts.n_received + 1;
    t.spec.on_message t.ctx ~from_switch v
  end

let received t = t.log
let received_count t = t.counts.n_received
let accepted_provenance t = t.prov_log
let stale_dropped t = t.counts.stale_dropped
let dup_dropped t = t.counts.dup_dropped
let offered_count t = t.counts.n_offered
let shed_count t = t.counts.n_shed
