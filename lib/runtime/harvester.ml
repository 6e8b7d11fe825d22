module Value = Farm_almanac.Value

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

type t = {
  spec : spec;
  ctx : ctx;
  mutable log : (float * int * Value.t) list;
  (* epoch fencing: per seed, the minimum epoch whose reports are valid.
     The seeder raises the fence whenever it (re)instantiates a seed, so a
     zombie instance left behind by a false failure detection — or a
     message still in flight from before a migration — cannot corrupt task
     state. *)
  fences : (int, int) Hashtbl.t;
  seen : (int, (int, unit) Hashtbl.t) Hashtbl.t;
      (* per seed, the accepted seqs of the fence epoch *)
  mutable prov_log : (float * provenance) list;  (* accepted, newest first *)
  counts : counters;
  mutable tracer : Farm_sim.Trace.t option;  (* wired by the seeder *)
  mutable lim : overload_config;
  mutable window_start : float;
  admits : (int, int) Hashtbl.t;  (* per-seed admits this window *)
}

let create spec ctx =
  { spec; ctx; log = []; fences = Hashtbl.create 16; seen = Hashtbl.create 16;
    prov_log = [];
    counts =
      { n_received = 0; stale_dropped = 0; dup_dropped = 0; n_offered = 0;
        n_shed = 0 };
    tracer = None; lim = unlimited; window_start = 0.;
    admits = Hashtbl.create 16 }

let set_tracer t tr = t.tracer <- tr

let set_overload t lim =
  t.lim <- lim;
  t.window_start <- t.ctx.now ();
  Hashtbl.reset t.admits

let window_admits t =
  if t.lim = unlimited then []
  else
    Hashtbl.fold (fun seed n acc -> (seed, n) :: acc) t.admits []
    |> List.sort compare

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

let fence t ~seed_id ~epoch =
  let cur = Option.value (Hashtbl.find_opt t.fences seed_id) ~default:(-1) in
  if epoch > cur then begin
    Hashtbl.replace t.fences seed_id epoch;
    Hashtbl.replace t.seen seed_id (Hashtbl.create 64)
  end

(* Admission control: drop stale-epoch reports, dedup (seed, epoch, seq).
   Reports from an epoch *newer* than the fence are accepted and raise the
   fence — the instantiate-side fence call and the first report race over
   the control channel, and both orders must converge. *)
let admit t p =
  let cur = Option.value (Hashtbl.find_opt t.fences p.p_seed) ~default:(-1) in
  if p.p_epoch < cur then begin
    t.counts.stale_dropped <- t.counts.stale_dropped + 1;
    false
  end
  else begin
    if p.p_epoch > cur then fence t ~seed_id:p.p_seed ~epoch:p.p_epoch;
    let seqs =
      match Hashtbl.find_opt t.seen p.p_seed with
      | Some s -> s
      | None ->
          let s = Hashtbl.create 64 in
          Hashtbl.replace t.seen p.p_seed s;
          s
    in
    if Hashtbl.mem seqs p.p_seq then begin
      t.counts.dup_dropped <- t.counts.dup_dropped + 1;
      false
    end
    else begin
      Hashtbl.replace seqs p.p_seq ();
      true
    end
  end

(* Fair-share inbox shedding: a fresh (non-stale, non-dup) report is shed
   when its seed has used up its slice of this window's budget.  Purely a
   function of (sim time, admitted history) — deterministic.  At
   [unlimited] limits the window never closes and no share is ever used
   up. *)
let shed_check t p =
  let now = t.ctx.now () in
  if now -. t.window_start >= t.lim.window then begin
    t.window_start <- now;
    Hashtbl.reset t.admits
  end;
  let seeds = max 1 (Hashtbl.length t.fences) in
  let share = max 1 (t.lim.max_reports / seeds) in
  let used =
    match Hashtbl.find t.admits p.p_seed with n -> n | exception Not_found -> 0
  in
  if used >= share then begin
    t.counts.n_shed <- t.counts.n_shed + 1;
    true
  end
  else begin
    Hashtbl.replace t.admits p.p_seed (used + 1);
    false
  end

let handle ~provenance:p t ~from_switch v =
  t.counts.n_offered <- t.counts.n_offered + 1;
  let accept = admit t p in
  let shed = accept && shed_check t p in
  let accept = accept && not shed in
  (match t.tracer with
  | None -> ()
  | Some tr ->
      let module Trace = Farm_sim.Trace in
      Trace.instant tr ~ts:(t.ctx.now ())
        ~cat:(Trace.label tr "harvester")
        ~name:
          (Trace.intern tr
             (if shed then "report_shed"
              else if accept then "report"
              else "report_dropped"))
        ~tid:from_switch)
  ;
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
