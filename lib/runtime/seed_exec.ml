module Value = Farm_almanac.Value
module Ast = Farm_almanac.Ast
module Host = Farm_almanac.Host
module Aengine = Farm_almanac.Engine
module Analysis = Farm_almanac.Analysis
module Filter = Farm_net.Filter
module Tcam = Farm_net.Tcam
module Sengine = Farm_sim.Engine
module Trace = Farm_sim.Trace

let c_handler = Trace.key "seed.handler"
let c_transit = Trace.key "seed.transit"
let c_overload = Trace.key "seed.overload"
let n_degradation = Trace.key "degradation"
let k_seed = Trace.key "seed"
let k_state = Trace.key "state"
let k_depth = Trace.key "depth"

type t = {
  sid : int;
  soil : Soil.t;
  epoch : int;  (* instance epoch, carried by every report (fencing) *)
  plan : Aengine.plan;  (* the task's prepared machine, shared *)
  mutable inst : Aengine.instance option;  (* None before wiring completes *)
  mutable res : float array;
  polls : Analysis.poll_summary list;
  mutable subs : (string * Soil.subscription list) list;  (* per trigger *)
  mutable transitions : int;
  mutable alive : bool;
  mutable next_seq : int;  (* per-instance report sequence numbers *)
  mutable dups : int;  (* inbound copies dropped by their receipt *)
  (* overload resilience: AIMD degraded mode over the adaptive triggers *)
  adaptive : string list;  (* poll vars whose period may be stretched *)
  rate_scale : float ref;
      (* 1.0 = full fidelity; a cell of its own so the registry's
         degradation gauge pins only it, not the whole instance *)
  mutable poll_drops : int;  (* polls the soil dropped/shed on us *)
  mutable last_drop_backoff : float;  (* throttles drop-triggered MD *)
  send : t -> Host.target -> Value.t -> unit;  (* wired by the seeder *)
}

let seed_id t = t.sid
let epoch t = t.epoch
let plan t = t.plan

let alloc_seq t =
  let s = t.next_seq in
  t.next_seq <- s + 1;
  s

let duplicates_dropped t = t.dups
let node t = Soil.node_id t.soil
let soil t = t.soil
let resources t = t.res

let inst t =
  match t.inst with
  | Some i -> i
  | None -> failwith "Seed_exec: machine engine not initialized"

let machine_name t = (Aengine.machine (inst t)).Ast.mname
let state t = Aengine.current_state (inst t)
let var t name = Aengine.var (inst t) name
let transitions t = t.transitions
let is_alive t = t.alive

let period_of_spec spec res =
  let rate = Analysis.poll_rate spec res in
  if rate <= 0. then
    (* no polling capacity allocated: back off to a slow default *)
    10.
  else 1. /. rate

(* Effective period of a trigger: an adaptive one's base period over the
   current rate scale (exact at full fidelity, a scale of 1). *)
let scaled_period t (p : Analysis.poll_summary) =
  let base = period_of_spec p.ival t.res in
  if List.mem p.poll_name t.adaptive then base /. !(t.rate_scale) else base
let degradation t = 1. -. !(t.rate_scale)
let poll_drops t = t.poll_drops

(* Subscribe one poll variable's triggers; returns the subscriptions. *)
let subscribe t (p : Analysis.poll_summary) =
  (* resolved once per subscription, not per event: the handler CPU cost
     and the trigger's dispatch entry *)
  let base_cost = (Soil.config t.soil).cpu.handler_base_cost in
  let fire_trigger = Aengine.prepare_trigger (inst t) p.poll_name in
  let fire value =
    if t.alive then begin
      Soil.charge_cpu t.soil base_cost;
      fire_trigger value
    end
  in
  let period = scaled_period t p in
  match p.ptrig with
  | Ast.Poll ->
      List.map
        (fun subject ->
          Soil.subscribe_poll t.soil ~seed_id:t.sid ~subject ~period
            (fun data -> fire (Value.Stats data)))
        p.subjects
  | Ast.Probe ->
      [ Soil.subscribe_probe t.soil ~seed_id:t.sid ~filter:p.what ~period
          (fun pkt -> fire (Value.Packet pkt)) ]
  | Ast.Time ->
      [ Soil.subscribe_time t.soil ~seed_id:t.sid ~period (fun now ->
            fire (Value.Num now)) ]

let resubscribe_all t =
  List.iter (fun (_, subs) -> List.iter (Soil.cancel t.soil) subs) t.subs;
  t.subs <- List.map (fun p -> (p.Analysis.poll_name, subscribe t p)) t.polls

(* ------------------------------------------------------------------ *)
(* Degraded mode (AIMD): stretch the adaptive triggers' periods under    *)
(* soil pressure, recover additively once it clears                     *)
(* ------------------------------------------------------------------ *)

let apply_rate_scale t =
  List.iter
    (fun (p : Analysis.poll_summary) ->
      if List.mem p.Analysis.poll_name t.adaptive then
        match List.assoc_opt p.Analysis.poll_name t.subs with
        | Some subs ->
            let period = scaled_period t p in
            List.iter (fun s -> Soil.set_period t.soil s period) subs
        | None -> ())
    t.polls

let set_rate_scale t scale =
  if t.alive && scale <> !(t.rate_scale) then begin
    t.rate_scale := scale;
    apply_rate_scale t;
    (match Sengine.tracer (Soil.engine t.soil) with
    | None -> ()
    | Some tr ->
        Trace.instant tr ~ts:(Soil.now t.soil) ~cat:c_overload
          ~name:(Trace.name tr n_degradation) ~tid:(Soil.node_id t.soil);
        Trace.arg_i tr k_seed t.sid;
        Trace.arg_f tr k_depth (1. -. scale));
    (* tell the harvester, so global logic can compensate for the
       reduced fidelity *)
    t.send t Host.To_harvester
      (Value.Struct
         ( "Degraded",
           [ ("seed", Value.Num (float_of_int t.sid));
             ("depth", Value.Num (1. -. scale)) ] ))
  end

(* Backpressure tick from the soil's pressure monitor. *)
let on_pressure t ~high =
  if t.adaptive <> [] then
    set_rate_scale t
      (if high then Overload.back_off !(t.rate_scale)
       else Overload.recover !(t.rate_scale))

(* The soil dropped/shed [n] of our polls.  Always counted; a drop burst
   also backs an adaptive seed off (at most once per pressure interval, so
   a shed batch is one MD step, not many). *)
let on_poll_drop t n =
  t.poll_drops <- t.poll_drops + n;
  if t.adaptive <> [] then begin
    let gap = (Soil.limits t.soil).pressure_interval in
    let now = Soil.now t.soil in
    if now -. t.last_drop_backoff >= gap then begin
      t.last_drop_backoff <- now;
      set_rate_scale t (Overload.back_off !(t.rate_scale))
    end
  end

(* runtime reassignment of a trigger variable: y = Poll { ... } or a bare
   number interpreted as the new period *)
let on_set_trigger t name _tt (v : Value.t) =
  let new_period =
    match v with
    | Value.Num p when p > 0. -> Some p
    | Value.Struct (_, fields) -> (
        match List.assoc_opt "ival" fields with
        | Some (Value.Num p) when p > 0. -> Some p
        | _ -> None)
    | _ -> None
  in
  match new_period with
  | None -> ()
  | Some p -> (
      match List.assoc_opt name t.subs with
      | Some subs -> List.iter (fun s -> Soil.set_period t.soil s p) subs
      | None -> ())

let rule_of_value v =
  match v with
  | Value.Struct ("Rule", fields) ->
      let pattern =
        match List.assoc_opt "pattern" fields with
        | Some (Value.FilterV f) -> f
        | _ -> Filter.True
      in
      let action =
        match List.assoc_opt "act" fields with
        | Some (Value.Action a) -> a
        | _ -> Tcam.Count
      in
      { Tcam.pattern; action; priority = 10 }
  | _ -> raise (Value.Type_error "expected a Rule")

let value_of_installed (e : Tcam.installed) =
  Value.Struct
    ( "Rule",
      [ ("pattern", Value.FilterV e.rule.pattern);
        ("act", Value.Action e.rule.action);
        ("bytes", Value.Num (Tcam.bytes e));
        ("packets", Value.Num (Tcam.packets e)) ] )

(* The built-in catalogue's [Soil] rows, served by this soil; a task's
   [builtins] override them. *)
let soil_builtin soil = function
  | "addTCAMRule" ->
      Some
        (function
        | [ rule ] ->
            (* a full TCAM refuses the rule silently *)
            ignore (Soil.add_tcam_rule soil (rule_of_value rule));
            Value.Unit
        | _ -> raise (Value.Type_error "addTCAMRule: 1 argument"))
  | "removeTCAMRule" ->
      Some
        (function
        | [ Value.FilterV pattern ] ->
            ignore (Soil.remove_tcam_rule soil ~pattern);
            Value.Unit
        | _ -> raise (Value.Type_error "removeTCAMRule: filter"))
  | "getTCAMRule" ->
      Some
        (function
        | [ Value.FilterV pattern ] -> (
            match Soil.get_tcam_rule soil ~pattern with
            | Some e -> value_of_installed e
            | None ->
                Value.Struct
                  ( "Rule",
                    [ ("pattern", Value.FilterV Filter.False);
                      ("act", Value.Action Tcam.Count) ] ))
        | _ -> raise (Value.Type_error "getTCAMRule: filter"))
  | "exec" ->
      (* running external code burns switch CPU *)
      Some
        (fun args ->
          let cmd = match args with [ Value.Str s ] -> s | _ -> "" in
          Soil.charge_cpu soil (Farm_almanac.Builtins.exec_cost cmd);
          Value.Num 1.)
  | "self_switch" ->
      Some (fun _ -> Value.Num (float_of_int (Soil.node_id soil)))
  | _ -> None

let deploy ~soil ~plan ?(externals = []) ?(builtins = []) ?restore
    ?(epoch = 0) ?(adaptive = []) ~resources ~polls ~send ~seed_id () =
  (* at unlimited soil limits no pressure tick ever comes and no interval
     throttles a drop back-off: nothing adapts, no gauge is published *)
  let limited = Soil.limits soil <> Soil.unlimited in
  let adaptive = if limited then adaptive else [] in
  let t =
    { sid = seed_id; soil; epoch; plan; inst = None;
      res = Array.copy resources; polls; subs = []; transitions = 0; alive = true; next_seq = 0;
      dups = 0; adaptive; rate_scale = ref 1.;
      poll_drops = 0; last_drop_backoff = Float.neg_infinity;
      send }
  in
  let host =
    { Host.h_now = (fun () -> Soil.now soil);
      h_resources = (fun () -> t.res);
      h_send = (fun target v -> if t.alive then send t target v);
      h_set_trigger = (fun name tt v -> on_set_trigger t name tt v);
      h_builtin =
        (fun name ->
          match List.assoc_opt name builtins with
          | Some f -> Some f
          | None -> soil_builtin soil name);
      h_on_transit =
        (fun old_st new_st ->
          t.transitions <- t.transitions + 1;
          Soil.charge_cpu soil (Soil.config soil).cpu.handler_base_cost;
          match Sengine.tracer (Soil.engine soil) with
          | None -> ()
          | Some tr ->
              Trace.instant tr ~ts:(Soil.now soil) ~cat:c_transit
                ~name:(Trace.intern tr (old_st ^ "->" ^ new_st))
                ~tid:(Soil.node_id soil);
              Trace.arg_i tr k_seed seed_id);
      h_log = (fun _ -> ());
      (* Reads the engine's sink on every fire, so a sink attached to a
         running world, or swapped, gets handler events too; untraced, a
         fire costs one closure call and one branch.  [trig]/[st] vary
         per fire but turn into allocation-free hash hits after their
         first occurrence. *)
      h_trace =
        (fun trig st ->
          match Sengine.tracer (Soil.engine soil) with
          | None -> ()
          | Some tr ->
              Trace.instant tr ~ts:(Soil.now soil) ~cat:c_handler
                ~name:(Trace.intern tr trig) ~tid:(Soil.node_id soil);
              Trace.arg_i tr k_seed seed_id;
              Trace.arg_s tr k_state (Trace.intern tr st)) }
  in
  let i = Aengine.instantiate ~externals plan host in
  t.inst <- Some i;
  Soil.attach_seed soil seed_id;
  Soil.on_poll_drop soil ~seed_id (fun n -> on_poll_drop t n);
  Soil.on_pressure soil ~seed_id (fun ~high -> on_pressure t ~high);
  if limited then begin
    let scale = t.rate_scale in
    Farm_sim.Metrics.Registry.gauge_fn
      (Sengine.metrics (Soil.engine soil))
      (Printf.sprintf "seed.%d.degradation" seed_id)
      (fun () -> 1. -. !scale)
  end;
  t.subs <- List.map (fun p -> (p.Analysis.poll_name, subscribe t p)) polls;
  (match restore with
  | Some (vars, state) -> Aengine.restore i ~vars ~state
  | None -> Aengine.start i);
  t

let set_resources t res =
  t.res <- Array.copy res;
  resubscribe_all t;
  Aengine.realloc (inst t)

(* The epoch of the last instance that took the message.  Epochs only
   grow along a message's deliveries (see the interface), so an instance
   has taken it iff the receipt holds its epoch. *)
type receipt = int ref

let receipt () = ref min_int

let deliver ?receipt t ~from v =
  let fresh =
    match receipt with
    | Some r when !r = t.epoch ->
        t.dups <- t.dups + 1;
        false
    | Some r ->
        r := t.epoch;
        true
    | None -> true
  in
  if fresh && t.alive then ignore (Aengine.deliver (inst t) ~from v)

let snapshot t = Aengine.snapshot (inst t)

let destroy t =
  t.alive <- false;
  List.iter (fun (_, subs) -> List.iter (Soil.cancel t.soil) subs) t.subs;
  t.subs <- [];
  (* detach_seed also removes this seed's drop/pressure hooks *)
  Soil.detach_seed t.soil t.sid
