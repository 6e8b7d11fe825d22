type caps = {
  vcpu : float;
  ram_mb : float;
  tcam_entries : int;
  pcie_bps : float;
  asic_bps : float;
}

(* PCIe polling budget is 8 Mbit/s on the paper's Accton switches (§VI-E)
   against 100 Gb/s+ ASIC capacity — the 1:12500 ratio behind Fig. 8. *)
let accton_as5712 =
  { vcpu = 4.; ram_mb = 8192.; tcam_entries = 2048; pcie_bps = 8e6;
    asic_bps = 100e9 }

type active_flow = {
  flow_id : int;
  tuple : Flow.five_tuple;
  base_rate : float;
  mutable rate : float;
  flags : Flow.tcp_flags;
  payload : string;
  egress : int;
}

(* A flow and the counters of the TCAM rules its tuple matches, as of
   TCAM version [t.tcam_version] *)
type entry = { flow : active_flow; mutable hits : Tcam.counters array }

type port_state = { mutable p_rate : float; mutable p_bytes : float }

type subject_state = { mutable s_rate : float; mutable s_bytes : float }

type t = {
  sw_id : int;
  caps : caps;
  tcam : Tcam.t;
  ports : port_state array;
  (* watched subjects, in watch order; a switch watches a handful *)
  mutable watched : (Filter.subject * subject_state) array;
  (* the active flows' entries, sorted by flow id, in [flows.(0)] to
     [flows.(n_flows - 1)]; the slots after them hold [vacant] *)
  mutable flows : entry array;
  mutable n_flows : int;
  mutable tcam_version : int;
  mutable last_sync : float;
  (* traffic-surge fault: offered load multiplier applied on top of every
     flow's base rate; 1.0 is bit-exact with the unfaulted model *)
  mutable surge : float;
  (* Rate caches, refreshed on demand by a walk in flow-id order, so
     cached results are bit-identical to recomputing: [rate_cache], the
     sum of active rates, and the sampling table go stale on membership
     changes and on any re-rating. *)
  mutable rate_cache : float;
  mutable rate_dirty : bool;
  (* sampling table: the flows with a positive rate in id order, and the
     running sums of their rates accumulated in that order *)
  mutable smp_flows : active_flow array;
  mutable smp_cum : float array;
}

let create ?(caps = accton_as5712) ~id ~ports () =
  { sw_id = id; caps;
    tcam = Tcam.create ~capacity:caps.tcam_entries ();
    ports = Array.init (Stdlib.max 1 ports) (fun _ -> { p_rate = 0.; p_bytes = 0. });
    watched = [||];
    flows = [||];
    n_flows = 0;
    tcam_version = 0;
    last_sync = 0.;
    surge = 1.;
    rate_cache = 0.; rate_dirty = false;
    smp_flows = [||]; smp_cum = [||] }

(* Filler of the flow store's unused slots, so a removed flow is not kept
   alive; no walk reads past [n_flows]. *)
let vacant =
  { flow =
      { flow_id = -1;
        tuple =
          { Flow.src = Ipaddr.of_int 0; dst = Ipaddr.of_int 0; sport = 0;
            dport = 0; proto = Flow.Tcp };
        base_rate = 0.; rate = 0.; flags = Flow.no_flags; payload = "";
        egress = -1 };
    hits = [||] }

(* The first index in [0, n_flows] whose flow id is at least [id]. *)
let find_slot t id =
  let lo = ref 0 and hi = ref t.n_flows in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if t.flows.(mid).flow.flow_id < id then lo := mid + 1 else hi := mid
  done;
  !lo

(* Put [e] in the store: in place of the entry with its id, else at its
   sorted position.  [Fabric] hands out rising ids, so that is normally
   the end; a reroute re-installs an older id in the middle. *)
let store_entry t e =
  let id = e.flow.flow_id in
  let i = find_slot t id in
  if i < t.n_flows && t.flows.(i).flow.flow_id = id then t.flows.(i) <- e
  else begin
    let n = t.n_flows in
    if n = Array.length t.flows then begin
      let grown = Array.make (Stdlib.max 8 (2 * n)) vacant in
      Array.blit t.flows 0 grown 0 n;
      t.flows <- grown
    end;
    Array.blit t.flows i t.flows (i + 1) (n - i);
    t.flows.(i) <- e;
    t.n_flows <- n + 1
  end

let id t = t.sw_id
let caps t = t.caps
let tcam t = t.tcam
let port_count t = Array.length t.ports

(* Point every flow at the counters of the rules it matches now; a no-op
   unless the rule set changed since the last refresh. *)
let refresh_hits t =
  let v = Tcam.version t.tcam in
  if v <> t.tcam_version then begin
    for i = 0 to t.n_flows - 1 do
      let e = t.flows.(i) in
      e.hits <- Tcam.matching t.tcam e.flow.tuple
    done;
    t.tcam_version <- v
  end

(* Integrate all rates up to [time]; counters stay exact at poll instants.
   Each TCAM rule matched at this instant gets, flow by flow in id
   order, the flow's bytes of the interval and its packets at 1000 B per
   packet (at least one).  Crediting flow by flow keeps the float sums
   those of a scan of every rule per flow; summing per-rule rates would
   re-associate them. *)
let sync t ~time =
  let dt = time -. t.last_sync in
  if dt > 0. then begin
    for i = 0 to Array.length t.ports - 1 do
      let p = t.ports.(i) in
      p.p_bytes <- p.p_bytes +. (p.p_rate *. dt)
    done;
    for i = 0 to Array.length t.watched - 1 do
      let _, s = t.watched.(i) in
      s.s_bytes <- s.s_bytes +. (s.s_rate *. dt)
    done;
    refresh_hits t;
    for i = 0 to t.n_flows - 1 do
      let e = t.flows.(i) in
      let rate = e.flow.rate in
      if rate > 0. then begin
        let bytes = rate *. dt in
        let q = bytes /. 1000. in
        (* [Float.max 1. q], spelled out so that no float is boxed *)
        let packets = if q > 1. || Float.is_nan q then q else 1. in
        let hits = e.hits in
        for j = 0 to Array.length hits - 1 do
          let c = hits.(j) in
          c.bytes <- c.bytes +. bytes;
          c.packets <- c.packets +. packets
        done
      end
    done;
    t.last_sync <- time
  end
  else if dt < 0. then
    invalid_arg "Switch_model: time went backwards"

(* Whether flow [f] counts towards subject [subj]. *)
let counts subj f =
  match subj with
  | Filter.All_ports -> true
  | Filter.Port_counter p -> f.tuple.sport = p || f.tuple.dport = p
  | Filter.Prefix_counter p ->
      Ipaddr.Prefix.mem f.tuple.src p || Ipaddr.Prefix.mem f.tuple.dst p
  | Filter.Proto_counter p -> f.tuple.proto = p

let rate_delta t f delta =
  if f.egress >= 0 && f.egress < Array.length t.ports then begin
    let p = t.ports.(f.egress) in
    p.p_rate <- p.p_rate +. delta
  end;
  for i = 0 to Array.length t.watched - 1 do
    let subj, s = t.watched.(i) in
    if counts subj f then s.s_rate <- s.s_rate +. delta
  done

let effective_rate t f =
  let base =
    if t.surge = 1. then f.base_rate else f.base_rate *. t.surge
  in
  match Tcam.lookup t.tcam f.tuple with
  | Some e -> (
      match e.rule.action with
      | Tcam.Drop -> 0.
      | Tcam.Rate_limit cap -> Float.min base cap
      | Tcam.Forward _ | Tcam.Set_qos _ | Tcam.Mirror | Tcam.Count -> base)
  | None -> base

let add_flow t ~time ~flow_id ~tuple ~rate ?(flags = Flow.no_flags)
    ?(payload = "") ~egress () =
  sync t ~time;
  let f =
    { flow_id; tuple; base_rate = rate; rate; flags; payload; egress }
  in
  f.rate <- effective_rate t f;
  store_entry t { flow = f; hits = Tcam.matching t.tcam tuple };
  t.rate_dirty <- true;
  rate_delta t f f.rate

let remove_flow t ~time ~flow_id =
  sync t ~time;
  let i = find_slot t flow_id in
  let n = t.n_flows in
  if i < n && t.flows.(i).flow.flow_id = flow_id then begin
    let f = t.flows.(i).flow in
    rate_delta t f (-.f.rate);
    Array.blit t.flows (i + 1) t.flows i (n - i - 1);
    t.flows.(n - 1) <- vacant;
    t.n_flows <- n - 1;
    t.rate_dirty <- true
  end

let active_flows t =
  List.init t.n_flows (fun i -> t.flows.(i).flow)

(* Re-apply TCAM actions (Drop, Rate_limit) to every active flow, in id
   order, so the float accumulation into port and subject rates is
   deterministic. *)
let apply_tcam_actions t =
  for i = 0 to t.n_flows - 1 do
    let f = t.flows.(i).flow in
    let r = effective_rate t f in
    if r <> f.rate then begin
      rate_delta t f (r -. f.rate);
      f.rate <- r;
      t.rate_dirty <- true
    end
  done

(* Rule changes settle the counters first, so a new rule counts traffic
   from its install on and a removed one keeps its last interval.  Adding
   to a full region or removing an absent pattern leaves the model
   untouched. *)
let add_rule t ~time region rule =
  if Tcam.free t.tcam region <= 0 then Error `Full
  else begin
    sync t ~time;
    let r = Tcam.add t.tcam region rule in
    apply_tcam_actions t;
    r
  end

let remove_rule t ~time region ~pattern =
  match Tcam.find t.tcam region ~pattern with
  | None -> 0
  | Some _ ->
      sync t ~time;
      let n = Tcam.remove t.tcam region ~pattern in
      apply_tcam_actions t;
      n

(* Traffic-surge fault: settle counters at [time], then re-rate every
   active flow under the new multiplier. *)
let set_surge t ~time factor =
  if factor <= 0. then invalid_arg "Switch_model.set_surge: factor <= 0";
  if factor <> t.surge then begin
    sync t ~time;
    t.surge <- factor;
    apply_tcam_actions t
  end

let check_port t port =
  if port < 0 || port >= Array.length t.ports then
    invalid_arg (Printf.sprintf "Switch_model: port %d out of range" port)

let port_bytes t ~time ~port =
  check_port t port;
  sync t ~time;
  t.ports.(port).p_bytes

(* The index of subject [subj] in [t.watched], or -1 if it is not
   watched; a loop, so a poll allocates no closure and no option. *)
let find_subject t subj =
  let n = Array.length t.watched in
  let i = ref 0 in
  while !i < n && not (Filter.subject_equal (fst t.watched.(!i)) subj) do
    incr i
  done;
  if !i < n then !i else -1

let watch_subject t ~time subj =
  sync t ~time;
  if find_subject t subj < 0 then begin
    let s = { s_rate = 0.; s_bytes = 0. } in
    (* initialize the subject's rate from currently active flows *)
    t.watched <- Array.append t.watched [| (subj, s) |];
    for i = 0 to t.n_flows - 1 do
      let f = t.flows.(i).flow in
      if counts subj f then s.s_rate <- s.s_rate +. f.rate
    done
  end

let subject_bytes t ~time subj =
  sync t ~time;
  let i = find_subject t subj in
  if i < 0 then 0. else (snd t.watched.(i)).s_bytes

let poll_subject t ~time subj =
  sync t ~time;
  match subj with
  | Filter.All_ports ->
      (* filled by a loop: a closure returning each float would box it *)
      let bytes = Array.create_float (Array.length t.ports) in
      for i = 0 to Array.length t.ports - 1 do
        bytes.(i) <- t.ports.(i).p_bytes
      done;
      bytes
  | _ -> [| subject_bytes t ~time subj |]

let refresh_rates t =
  if t.rate_dirty then begin
    let total = ref 0. and positive = ref 0 in
    for i = 0 to t.n_flows - 1 do
      let r = t.flows.(i).flow.rate in
      total := !total +. r;
      if r > 0. then incr positive
    done;
    t.rate_cache <- !total;
    (* adding a zero rate leaves a running sum unchanged, so the sums over
       the positive flows alone are the ones a walk over all flows in id
       order reaches at those flows *)
    let flows = Array.make !positive vacant.flow
    and cum = Array.create_float !positive in
    let k = ref 0 and acc = ref 0. in
    for i = 0 to t.n_flows - 1 do
      let f = t.flows.(i).flow in
      if f.rate > 0. then begin
        acc := !acc +. f.rate;
        flows.(!k) <- f;
        cum.(!k) <- !acc;
        incr k
      end
    done;
    t.smp_flows <- flows;
    t.smp_cum <- cum;
    t.rate_dirty <- false
  end

let total_rate t =
  refresh_rates t;
  t.rate_cache

(* Smallest [i] in [lo, hi) with [cum.(i) >= target], or [hi]. *)
let rec first_reaching (cum : float array) target lo hi =
  if lo >= hi then hi
  else
    let mid = (lo + hi) lsr 1 in
    if cum.(mid) >= target then first_reaching cum target lo mid
    else first_reaching cum target (mid + 1) hi

(* A packet of the first flow, in id order, whose running rate sum reaches
   a uniform draw below the total rate.  Rates are non-negative, so the
   sums never decrease and a binary search finds that flow. *)
let sample_packet t rng =
  let total = total_rate t in
  if total <= 0. then None
  else begin
    let target = Farm_sim.Rng.uniform rng 0. total in
    let n = Array.length t.smp_cum in
    let i = first_reaching t.smp_cum target 0 n in
    (* a draw rounded up to the total reaches no sum *)
    if i = n then None
    else
      let f = t.smp_flows.(i) in
      Some (Flow.packet ~flags:f.flags ~payload:f.payload f.tuple 1000)
  end
