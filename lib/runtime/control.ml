module Engine = Farm_sim.Engine
module Metrics = Farm_sim.Metrics
module Rng = Farm_sim.Rng
module Trace = Farm_sim.Trace

let c_seeder = Trace.key "seeder"

let trace_instant engine name =
  match Engine.tracer engine with
  | None -> None
  | Some tr as sink ->
      Trace.instant tr ~ts:(Engine.now engine) ~cat:c_seeder
        ~name:(Trace.name tr name) ~tid:0;
      sink

let trace_span engine name ~dur =
  match Engine.tracer engine with
  | None -> None
  | Some tr as sink ->
      Trace.span tr ~ts:(Engine.now engine) ~dur ~cat:c_seeder
        ~name:(Trace.name tr name) ~tid:0;
      sink

let trace_i sink key v =
  match sink with Some tr -> Trace.arg_i tr key v | None -> ()

let trace_f sink key v =
  match sink with Some tr -> Trace.arg_f tr key v | None -> ()

let n_breaker_drop = Trace.key "ctrl_breaker_drop"
let n_rate_limited = Trace.key "ctrl_rate_limited"
let n_send = Trace.key "ctrl_send"
let n_lost = Trace.key "ctrl_lost"
let n_retry_capped = Trace.key "ctrl_retry_capped"
let n_retry = Trace.key "ctrl_retry"
let k_node = Trace.key "node"
let k_try = Trace.key "try"

type protection = {
  rate_limit : float;  (* sends per second (token refill rate) *)
  burst : float;  (* bucket depth: sends admitted back-to-back *)
  breaker_threshold : int;  (* consecutive failures before opening *)
  breaker_cooldown : float;  (* open duration before the half-open probe *)
  max_inflight_retries : int;  (* per-switch bound on pending retries *)
  retry_jitter : float;  (* max extra backoff, drawn from a keyed stream *)
}

let default_protection =
  { rate_limit = 2000.; burst = 64.; breaker_threshold = 5;
    breaker_cooldown = 50e-3; max_inflight_retries = 8; retry_jitter = 1e-3 }

let unlimited =
  { rate_limit = infinity; burst = infinity; breaker_threshold = max_int;
    breaker_cooldown = 0.; max_inflight_retries = max_int; retry_jitter = 0. }

type faults = { loss : float; delay : float; dup : float }

let perfect = { loss = 0.; delay = 0.; dup = 0. }

let latency = 250e-6  (* DC-internal RTT/2 to the controller *)
let retry_backoff = 1e-3
let max_retries = 5

module Int_map = Map.Make (Int)

(* A switch's circuit breaker, and its retries waiting for a send *)
type link = { breaker : Overload.Breaker.t; mutable inflight : int }

type t = {
  engine : Engine.t;
  prot : protection;
  mutable faults : faults;
  (* loss/dup draws; split lazily so fault-free runs draw exactly the
     same random streams as a channel without faults *)
  rng : Rng.t Lazy.t;
  (* base for the per-message keyed jitter streams: replays draw the same
     jitter for the same (key, try) regardless of interleaving *)
  jitter : Rng.t;
  bucket : Overload.Token_bucket.t;  (* global pacing *)
  mutable links : link Int_map.t;  (* by switch id, made on first use *)
  mutable retransmissions : int;
  mutable lost : int;
  mutable rate_limited : int;
  mutable breaker_dropped : int;
  mutable retry_capped : int;
}

let link t node =
  match Int_map.find_opt node t.links with
  | Some l -> l
  | None ->
      let l =
        { breaker =
            Overload.Breaker.create ~threshold:t.prot.breaker_threshold
              ~cooldown:t.prot.breaker_cooldown;
          inflight = 0 }
      in
      t.links <- Int_map.add node l t.links;
      l

let breaker t node = (link t node).breaker

let breaker_opens t =
  Int_map.fold (fun _ l acc -> acc + Overload.Breaker.opens l.breaker) t.links 0

let create engine prot =
  let limited = prot <> unlimited in
  (* split before [rng] is ever forced, so the stream layout of a
     protected channel is fixed: one split for jitter, then the lazy
     loss/dup split.  An unlimited channel never draws jitter and splits
     nothing here. *)
  let jitter =
    if limited then Rng.split (Engine.rng engine) else Rng.create 0
  in
  let t =
    { engine; prot; faults = perfect;
      rng = lazy (Rng.split (Engine.rng engine)); jitter;
      bucket =
        Overload.Token_bucket.create ~rate:prot.rate_limit ~burst:prot.burst;
      links = Int_map.empty;
      retransmissions = 0; lost = 0; rate_limited = 0; breaker_dropped = 0;
      retry_capped = 0 }
  in
  let reg = Engine.metrics engine in
  let g name f =
    Metrics.Registry.gauge_fn reg name (fun () -> float_of_int (f ()))
  in
  g "seeder.control.retransmissions" (fun () -> t.retransmissions);
  g "seeder.control.lost" (fun () -> t.lost);
  if limited then begin
    g "seeder.ctrl.rate_limited" (fun () -> t.rate_limited);
    g "seeder.ctrl.breaker_dropped" (fun () -> t.breaker_dropped);
    g "seeder.ctrl.retry_capped" (fun () -> t.retry_capped);
    g "seeder.ctrl.breaker_opens" (fun () -> breaker_opens t)
  end;
  t

let set_faults t f = t.faults <- f

(* One transmission under faults [c]: the loss draw, then the dup draw.
   A surviving message arrives ([arrive true]) after [latency + delay +
   extra], a duplicate ([arrive false]) [retry_backoff] after it.  False
   when the loss draw dropped it. *)
let transmit t (c : faults) ~extra arrive =
  let lost = c.loss > 0. && Rng.bernoulli (Lazy.force t.rng) c.loss in
  if not lost then begin
    let dup = c.dup > 0. && Rng.bernoulli (Lazy.force t.rng) c.dup in
    let delay = latency +. c.delay +. extra in
    Engine.schedule t.engine ~delay (fun _ -> arrive true);
    if dup then
      Engine.schedule t.engine ~delay:(delay +. retry_backoff) (fun _ ->
          arrive false)
  end;
  not lost

let oneshot t ?(extra = 0.) deliver =
  ignore (transmit t t.faults ~extra (fun _ -> deliver ()) : bool)

(* The breaker of [dest], the switch a unicast is for, records the
   outcome of one try. *)
let failure t = function
  | Some node ->
      Overload.Breaker.failure (breaker t node) ~now:(Engine.now t.engine)
  | None -> ()

let success t = function
  | Some node -> Overload.Breaker.success (breaker t node)
  | None -> ()

(* a retry holds one of its switch's slots until it is sent *)
let hold t d = function
  | Some node ->
      let l = link t node in
      l.inflight <- max 0 (l.inflight + d)
  | None -> ()

let lost_at t dest name =
  t.lost <- t.lost + 1;
  trace_i (trace_instant t.engine name) k_node (Option.value dest ~default:(-1))

(* Try [tries] of one unicast.  The faults [c] are read once per try,
   when it is sent: a try paced by the bucket still transmits under them.
   The helpers are top-level, so a try allocates only the callbacks it
   hands to the engine. *)
let rec attempt t ~tries ?dest ?key deliver =
  let c = t.faults in
  let now = Engine.now t.engine in
  match dest with
  | Some node when not (Overload.Breaker.allow (breaker t node) ~now) ->
      t.breaker_dropped <- t.breaker_dropped + 1;
      lost_at t dest n_breaker_drop
  | _ ->
      let delay = Overload.Token_bucket.reserve t.bucket ~now in
      if delay > 0. then begin
        t.rate_limited <- t.rate_limited + 1;
        ignore (trace_instant t.engine n_rate_limited);
        Engine.schedule t.engine ~delay (fun _ ->
            send_now t c ~tries ?dest ?key deliver)
      end
      else send_now t c ~tries ?dest ?key deliver

and send_now t c ~tries ?dest ?key deliver =
  if transmit t c ~extra:0. (arrive t c ~tries ?dest ?key deliver) then
    ignore (trace_span t.engine n_send ~dur:(latency +. c.delay))
  else begin
    failure t dest;
    resend t c ~tries ?dest ?key deliver
  end

(* only the original copy's answer counts *)
and arrive t c ~tries ?dest ?key deliver original =
  if not original then ignore (deliver () : [ `Delivered | `Absent | `Gone ])
  else
    match deliver () with
    | `Delivered -> success t dest
    | `Absent ->
        failure t dest;
        resend t c ~tries ?dest ?key deliver
    | `Gone ->
        (* the channel answered; only the recipient is gone *)
        success t dest;
        t.lost <- t.lost + 1

and resend t c ~tries ?dest ?key deliver =
  match dest with
  | _ when tries >= max_retries ->
      t.lost <- t.lost + 1;
      ignore (trace_instant t.engine n_lost)
  | Some node when (link t node).inflight >= t.prot.max_inflight_retries ->
      t.retry_capped <- t.retry_capped + 1;
      lost_at t dest n_retry_capped
  | _ ->
      hold t 1 dest;
      t.retransmissions <- t.retransmissions + 1;
      trace_i (trace_instant t.engine n_retry) k_try (tries + 1);
      let jitter =
        match key with
        | Some k when t.prot.retry_jitter > 0. ->
            Rng.uniform (Rng.stream t.jitter ((k * 8) + tries)) 0.
              t.prot.retry_jitter
        | _ -> 0.
      in
      let backoff = (retry_backoff *. (2. ** float_of_int tries)) +. jitter in
      Engine.schedule t.engine ~delay:(latency +. c.delay +. backoff) (fun _ ->
          hold t (-1) dest;
          attempt t ~tries:(tries + 1) ?dest ?key deliver)

let send t ?dest ?key deliver = attempt t ~tries:0 ?dest ?key deliver

(* try [tries] of key [k] draws from stream [k * 8 + tries] *)
let max_key = max_int / 8

let retransmissions t = t.retransmissions
let lost_messages t = t.lost
let rate_limited t = t.rate_limited
let breaker_dropped t = t.breaker_dropped
let retry_capped t = t.retry_capped

let breaker_state t node =
  Option.map
    (fun l -> Overload.Breaker.state_name l.breaker)
    (Int_map.find_opt node t.links)

(* a switch whose breaker is closed without failures and that has no
   retries in flight prints nothing *)
let digest t b =
  Int_map.iter
    (fun node l ->
      let line =
        (match Overload.Breaker.state l.breaker with
        | Closed 0 -> ""
        | Closed n -> Printf.sprintf " fails=%d" n
        | Open until -> Printf.sprintf " open@%h" until
        | Half_open -> " half_open")
        ^ if l.inflight = 0 then "" else Printf.sprintf " inflight=%d" l.inflight
      in
      if line <> "" then Printf.bprintf b "ctrl %d%s\n" node line)
    t.links
