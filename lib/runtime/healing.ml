module Engine = Farm_sim.Engine
module Metrics = Farm_sim.Metrics
module Trace = Farm_sim.Trace
module Value = Farm_almanac.Value

let n_checkpoint = Trace.key "checkpoint"
let n_declare_failed = Trace.key "declare_failed"
let n_heartbeat = Trace.key "heartbeat"
let k_seed = Trace.key "seed"
let k_bytes = Trace.key "bytes"
let k_node = Trace.key "node"

(* last checkpoint of a seed accumulated at the seeder (deltas merged) *)
type store = {
  st_epoch : int;  (* stores are replaced wholesale on an epoch change *)
  mutable st_seq : int;
  mutable st_vars : (string * Value.t) list;
  mutable st_state : string;
  mutable st_time : float;
}

type ck = {
  mutable timer : Engine.timer option;
  mutable next : int;  (* next checkpoint seq (sender side) *)
  mutable last_shipped : (string * Value.t) list option;  (* delta base *)
  mutable store : store option;  (* seeder-side accumulated checkpoint *)
}

let ck () = { timer = None; next = 0; last_shipped = None; store = None }

module Int_map = Map.Make (Int)

(* One switch.  The seeder only learns about crashes through its
   detector, so [failed] and [down] can disagree in both directions. *)
type switch = {
  mutable failed : bool;  (* control-plane view: declared down *)
  mutable down : bool;  (* ground truth: crashed, not yet revived *)
  mutable last_crash : float option;  (* survives revival *)
  mutable last_seen : float option;  (* last heartbeat arrival *)
  (* demoted instances, oldest first: only false positives leave any *)
  mutable zombies : Seed_exec.t list;
}

type t = {
  engine : Engine.t;
  control : Control.t;
  detector : detector;
  full_every : int;
  (* the seeder's placement reactions *)
  fail_over : int -> int;
  reoptimize : unit -> unit;
  repush : int -> int;
  mutable switches : switch Int_map.t;  (* by switch id *)
  detection_latency : Metrics.Histogram.t;
  recovery_time : Metrics.Histogram.t;
  checkpoint_bytes : Metrics.Counter.t;
  mutable heartbeats_sent : int;
  mutable heartbeats_delivered : int;
  mutable checkpoints_shipped : int;
  mutable checkpoint_gaps : int;
  mutable detections : int;
  mutable false_detections : int;
  mutable auto_recoveries : int;
  mutable zombies_fenced : int;
}

(* What tells the control plane about crashes and revivals. *)
and detector = {
  start : t -> int list -> unit;  (* arms its timers for these switches *)
  crashed : t -> int -> unit;
  revived : t -> int -> unit;
  checkpoint_interval : float;  (* 0: no checkpoints are shipped *)
}

let switch t node =
  match Int_map.find_opt node t.switches with
  | Some s -> s
  | None ->
      let s =
        { failed = false; down = false; last_crash = None; last_seen = None;
          zombies = [] }
      in
      t.switches <- Int_map.add node s t.switches;
      s

let flag f t node =
  match Int_map.find_opt node t.switches with Some s -> f s | None -> false

let is_failed = flag (fun s -> s.failed)
let is_down = flag (fun s -> s.down)

let nodes p t =
  Int_map.fold (fun n s acc -> if p s then n :: acc else acc) t.switches []
  |> List.rev

let failed_switches = nodes (fun s -> s.failed)
let down_switches = nodes (fun s -> s.down)

(* ------------------------------------------------------------------ *)
(* Zombies and checkpoints                                             *)
(* ------------------------------------------------------------------ *)

let kill_zombies t s =
  List.iter
    (fun exec ->
      if Seed_exec.is_alive exec then Seed_exec.destroy exec;
      t.zombies_fenced <- t.zombies_fenced + 1)
    s.zombies;
  s.zombies <- []

let stop_checkpoints ck =
  match ck.timer with
  | Some tm ->
      Engine.cancel tm;
      ck.timer <- None
  | None -> ()

(* Keep the instance as a zombie and tell its (possibly only
   suspected-dead) switch to terminate it.  If the zombie was already
   cleaned up by the time the message lands, it is simply gone. *)
let demote t ck exec =
  stop_checkpoints ck;
  let s = switch t (Seed_exec.node exec) in
  s.zombies <- s.zombies @ [ exec ];
  Control.send t.control ~dest:(Seed_exec.node exec) (fun () ->
      if List.memq exec s.zombies then begin
        s.zombies <- List.filter (fun e -> e != exec) s.zombies;
        Seed_exec.destroy exec;
        t.zombies_fenced <- t.zombies_fenced + 1;
        `Delivered
      end
      else `Gone)

let last_checkpoint ck =
  Option.map (fun st -> (st.st_time, st.st_vars, st.st_state)) ck.store

(* Accept one checkpoint at the seeder.  Deltas merge only when they are
   contiguous with the accumulated state and belong to the current
   instance; anything else waits for the next full snapshot. *)
let merge t ck ~epoch (c : Checkpoint.t) =
  if c.ck_epoch = epoch then
    match ck.store with
    | Some st when st.st_epoch = c.ck_epoch ->
        if c.ck_seq <= st.st_seq then ()  (* duplicate / reordered *)
        else if c.ck_full || c.ck_seq = st.st_seq + 1 then begin
          st.st_vars <- Checkpoint.apply ~base:st.st_vars c;
          st.st_state <- c.ck_state;
          st.st_seq <- c.ck_seq;
          st.st_time <- Engine.now t.engine
        end
        else t.checkpoint_gaps <- t.checkpoint_gaps + 1
    | _ ->
        if c.ck_full then
          ck.store <-
            Some
              { st_epoch = c.ck_epoch; st_seq = c.ck_seq;
                st_vars = c.ck_vars; st_state = c.ck_state;
                st_time = Engine.now t.engine }
        else t.checkpoint_gaps <- t.checkpoint_gaps + 1

let ctrl_bandwidth_bps = 1e9  (* what checkpoints are costed against *)

let ship t ck ~epoch exec =
  let vars, state = Seed_exec.snapshot exec in
  let seq = ck.next in
  ck.next <- seq + 1;
  let ck_full, ck_vars, ck_removed =
    match ck.last_shipped with
    | None -> (true, vars, [])
    | Some _ when seq mod t.full_every = 0 -> (true, vars, [])
    | Some base ->
        let changed, removed = Checkpoint.delta ~base vars in
        (false, changed, removed)
  in
  ck.last_shipped <- Some vars;
  let seed = Seed_exec.seed_id exec in
  let c =
    { Checkpoint.ck_seed = seed; ck_epoch = Seed_exec.epoch exec; ck_seq = seq;
      ck_full; ck_vars; ck_removed; ck_state = state }
  in
  let bytes = Checkpoint.wire_bytes c in
  t.checkpoints_shipped <- t.checkpoints_shipped + 1;
  Metrics.Counter.add t.checkpoint_bytes bytes;
  (* serializing state burns management CPU on the switch *)
  Soil.charge_cpu (Seed_exec.soil exec) (2e-6 +. (bytes *. 5e-9));
  (* shipping it competes for control-channel bandwidth *)
  let extra = bytes *. 8. /. ctrl_bandwidth_bps in
  let ev =
    Control.trace_span t.engine n_checkpoint ~dur:(Control.latency +. extra)
  in
  Control.trace_i ev k_seed seed;
  Control.trace_f ev k_bytes bytes;
  Control.oneshot t.control ~extra (fun () -> merge t ck ~epoch:(epoch ()) c)

let start_checkpoints t ck ~epoch exec =
  stop_checkpoints ck;
  ck.next <- 0;
  ck.last_shipped <- None;
  let period = t.detector.checkpoint_interval in
  if period > 0. then
    ck.timer <-
      Some (Engine.every t.engine ~period (fun _ -> ship t ck ~epoch exec))

(* ------------------------------------------------------------------ *)
(* Detection and rejoin                                                *)
(* ------------------------------------------------------------------ *)

(* [n] seeds run again; [since] is the crash they recovered from *)
let recovered t n ~since =
  t.auto_recoveries <- t.auto_recoveries + n;
  Option.iter
    (fun t0 ->
      let dt = Engine.now t.engine -. t0 in
      for _ = 1 to n do
        Metrics.Histogram.record t.recovery_time dt
      done)
    since

(* The detector declared [node] dead: fence it off and migrate its seeds.
   The declaration is true if the switch is down, or crashed after its last
   heard heartbeat and rebooted before the detector fired.  A false
   positive (the switch is merely partitioned) leaves its instances
   unreachable — they are demoted to zombies, sent a kill order, and
   fenced by epoch at the harvesters until the switch rejoins. *)
let declare_failed t node =
  let now = Engine.now t.engine in
  t.detections <- t.detections + 1;
  Control.trace_i (Control.trace_instant t.engine n_declare_failed) k_node node;
  let s = switch t node in
  let crashed_at =
    match (s.last_crash, s.last_seen) with
    | Some _, _ when s.down -> s.last_crash
    | Some c, Some seen when c >= seen -> s.last_crash
    | _ -> None
  in
  (match crashed_at with
  | Some t0 -> Metrics.Histogram.record t.detection_latency (now -. t0)
  | None -> t.false_detections <- t.false_detections + 1);
  s.failed <- true;
  recovered t (t.fail_over node) ~since:crashed_at

(* A switch the control plane had written off is provably alive and
   reachable again: lift the fence and re-optimize over the enlarged
   fabric.  Any zombies still on it are terminated as part of the rejoin
   handshake. *)
let rejoin t node =
  let s = switch t node in
  s.failed <- false;
  kill_zombies t s;
  s.last_seen <- Some (Engine.now t.engine);
  t.reoptimize ()

(* A heartbeat proves the switch's management plane is up.  If it was
   detector-failed this is either a false positive or a post-crash reboot
   — rejoin it.  Otherwise re-push any seed assigned here whose instance
   died with a crash the detector never saw (down and back up within the
   detection timeout). *)
let on_heartbeat t node =
  t.heartbeats_delivered <- t.heartbeats_delivered + 1;
  let s = switch t node in
  s.last_seen <- Some (Engine.now t.engine);
  if s.failed then rejoin t node
  else
    recovered t (t.repush node) ~since:s.last_crash

let beat t node =
  if not (is_down t node) then begin
    t.heartbeats_sent <- t.heartbeats_sent + 1;
    Control.trace_i (Control.trace_instant t.engine n_heartbeat) k_node node;
    Control.oneshot t.control (fun () -> on_heartbeat t node)
  end

let sweep t nodes ~timeout =
  let now = Engine.now t.engine in
  List.iter
    (fun node ->
      let s = switch t node in
      let seen = Option.value s.last_seen ~default:now in
      if (not s.failed) && now -. seen > timeout then declare_failed t node)
    nodes

let oracle =
  { start = (fun _ _ -> ());
    crashed = declare_failed;
    revived = (fun t node -> if is_failed t node then rejoin t node);
    checkpoint_interval = 0. }

let heartbeat ~interval ~timeout ~checkpoint_interval =
  if interval <= 0. then
    invalid_arg "Seeder: auto_heal requires heartbeat_interval > 0";
  let start t nodes =
    let now = Engine.now t.engine in
    List.iter
      (fun node ->
        (switch t node).last_seen <- Some now;
        ignore
          (Engine.every t.engine ~period:interval (fun _ -> beat t node)
            : Engine.timer))
      nodes;
    ignore
      (Engine.every t.engine ~period:interval (fun _ ->
           sweep t nodes ~timeout)
        : Engine.timer)
  in
  { start; crashed = (fun _ _ -> ()); revived = (fun _ _ -> ());
    checkpoint_interval }

(* ------------------------------------------------------------------ *)
(* Construction and ground truth                                       *)
(* ------------------------------------------------------------------ *)

let create engine control detector ~full_every ~fail_over ~reoptimize
    ~repush =
  let reg = Engine.metrics engine in
  let t =
    { engine; control; detector; full_every = max 1 full_every;
      fail_over; reoptimize; repush; switches = Int_map.empty;
      detection_latency =
        Metrics.Registry.histogram reg "seeder.detection_latency";
      recovery_time = Metrics.Registry.histogram reg "seeder.recovery_time";
      checkpoint_bytes =
        Metrics.Registry.counter reg "seeder.checkpoint.bytes";
      heartbeats_sent = 0; heartbeats_delivered = 0; checkpoints_shipped = 0;
      checkpoint_gaps = 0; detections = 0; false_detections = 0;
      auto_recoveries = 0; zombies_fenced = 0 }
  in
  let g name f =
    Metrics.Registry.gauge_fn reg name (fun () -> float_of_int (f ()))
  in
  g "seeder.heartbeats.sent" (fun () -> t.heartbeats_sent);
  g "seeder.heartbeats.delivered" (fun () -> t.heartbeats_delivered);
  g "seeder.checkpoints.shipped" (fun () -> t.checkpoints_shipped);
  g "seeder.checkpoints.gaps" (fun () -> t.checkpoint_gaps);
  g "seeder.detections" (fun () -> t.detections);
  g "seeder.detections.false" (fun () -> t.false_detections);
  g "seeder.recoveries.auto" (fun () -> t.auto_recoveries);
  g "seeder.zombies.fenced" (fun () -> t.zombies_fenced);
  t

let start t ~nodes = t.detector.start t nodes

let crash t node =
  let s = switch t node in
  s.down <- true;
  s.last_crash <- Some (Engine.now t.engine);
  (* any zombie instances die with the switch too *)
  kill_zombies t s;
  t.detector.crashed t node

let revive t node =
  (switch t node).down <- false;
  t.detector.revived t node

let detection_latency t = t.detection_latency
let recovery_time t = t.recovery_time
let heartbeats_sent t = t.heartbeats_sent
let checkpoints_shipped t = t.checkpoints_shipped
let checkpoint_bytes t = Metrics.Counter.value t.checkpoint_bytes
let detections t = t.detections
let false_detections t = t.false_detections
let auto_recoveries t = t.auto_recoveries
let zombies_fenced t = t.zombies_fenced
let zombie_count t =
  Int_map.fold (fun _ s n -> n + List.length s.zombies) t.switches 0

let digest_store b ~seed ck =
  match ck.store with
  | None -> ()
  | Some st ->
      Printf.bprintf b " store@%h %s" st.st_time
        (Checkpoint.encode
           { Checkpoint.ck_seed = seed; ck_epoch = st.st_epoch;
             ck_seq = st.st_seq; ck_full = true; ck_vars = st.st_vars;
             ck_removed = []; ck_state = st.st_state })
