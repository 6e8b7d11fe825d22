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

module Subject_map = Map.Make (struct
  type t = Filter.subject

  let compare = Filter.subject_compare
end)

type t = {
  sw_id : int;
  caps : caps;
  tcam : Tcam.t;
  ports : port_state array;
  mutable subjects : subject_state Subject_map.t;
  flows : (int, entry) Hashtbl.t;
  mutable tcam_version : int;
  mutable last_sync : float;
  (* traffic-surge fault: offered load multiplier applied on top of every
     flow's base rate; 1.0 is bit-exact with the unfaulted model *)
  mutable surge : float;
  (* Hot-query caches, refreshed on demand with the exact fold the
     uncached code used — same iteration order, same float accumulation,
     so cached results are bit-identical to recomputing.  [fl_cache]
     (id-sorted flow list) goes stale only on membership changes; the
     rate caches ([rate_cache], the sum of active rates, and the sampling
     table) also on any re-rating. *)
  mutable fl_cache : active_flow list;
  mutable fl_dirty : bool;
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
    subjects = Subject_map.empty;
    flows = Hashtbl.create 32;
    tcam_version = 0;
    last_sync = 0.;
    surge = 1.;
    fl_cache = []; fl_dirty = false; rate_cache = 0.; rate_dirty = false;
    smp_flows = [||]; smp_cum = [||] }

let id t = t.sw_id
let caps t = t.caps
let tcam t = t.tcam
let port_count t = Array.length t.ports

(* Point every flow at the counters of the rules it matches now; a no-op
   unless the rule set changed since the last refresh. *)
let refresh_hits t =
  let v = Tcam.version t.tcam in
  if v <> t.tcam_version then begin
    Hashtbl.iter
      (fun _ e -> e.hits <- Tcam.matching t.tcam e.flow.tuple)
      t.flows;
    t.tcam_version <- v
  end

(* Integrate all rates up to [time]; counters stay exact at poll instants.
   Each TCAM rule matched at this instant gets, flow by flow in table
   order, the flow's bytes of the interval and its packets at 1000 B per
   packet (at least one).  Crediting flow by flow keeps the float sums
   those of a scan of every rule per flow; summing per-rule rates would
   re-associate them. *)
let sync t ~time =
  let dt = time -. t.last_sync in
  if dt > 0. then begin
    Array.iter (fun p -> p.p_bytes <- p.p_bytes +. (p.p_rate *. dt)) t.ports;
    Subject_map.iter
      (fun _ s -> s.s_bytes <- s.s_bytes +. (s.s_rate *. dt))
      t.subjects;
    refresh_hits t;
    Hashtbl.iter
      (fun _ e ->
        let rate = e.flow.rate in
        if rate > 0. then begin
          let bytes = rate *. dt in
          let q = bytes /. 1000. in
          (* [Float.max 1. q], spelled out so that no float is boxed *)
          let packets = if q > 1. || Float.is_nan q then q else 1. in
          let hits = e.hits in
          for i = 0 to Array.length hits - 1 do
            let c = hits.(i) in
            c.bytes <- c.bytes +. bytes;
            c.packets <- c.packets +. packets
          done
        end)
      t.flows;
    t.last_sync <- time
  end
  else if dt < 0. then
    invalid_arg "Switch_model: time went backwards"

let rate_delta t f delta =
  if f.egress >= 0 && f.egress < Array.length t.ports then begin
    let p = t.ports.(f.egress) in
    p.p_rate <- p.p_rate +. delta
  end;
  Subject_map.iter
    (fun subj s ->
      let hit =
        match subj with
        | Filter.All_ports -> true
        | Filter.Port_counter p -> f.tuple.sport = p || f.tuple.dport = p
        | Filter.Prefix_counter p ->
            Ipaddr.Prefix.mem f.tuple.src p || Ipaddr.Prefix.mem f.tuple.dst p
        | Filter.Proto_counter p -> f.tuple.proto = p
      in
      if hit then s.s_rate <- s.s_rate +. delta)
    t.subjects

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
  Hashtbl.replace t.flows flow_id
    { flow = f; hits = Tcam.matching t.tcam tuple };
  t.fl_dirty <- true;
  t.rate_dirty <- true;
  rate_delta t f f.rate

let remove_flow t ~time ~flow_id =
  sync t ~time;
  match Hashtbl.find_opt t.flows flow_id with
  | None -> ()
  | Some { flow = f; _ } ->
      rate_delta t f (-.f.rate);
      Hashtbl.remove t.flows flow_id;
      t.fl_dirty <- true;
      t.rate_dirty <- true

let active_flows t =
  if t.fl_dirty then begin
    t.fl_cache <-
      Hashtbl.fold (fun _ e acc -> e.flow :: acc) t.flows []
      |> List.sort (fun a b -> Int.compare a.flow_id b.flow_id);
    t.fl_dirty <- false
  end;
  t.fl_cache

(* Re-apply TCAM actions (Drop, Rate_limit) to every active flow. *)
let apply_tcam_actions t =
  Hashtbl.iter
    (fun _ { flow = f; _ } ->
      let r = effective_rate t f in
      if r <> f.rate then begin
        rate_delta t f (r -. f.rate);
        f.rate <- r;
        t.rate_dirty <- true
      end)
    t.flows

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
   active flow under the new multiplier (flow-id order, so the float
   accumulation into port/subject rates is deterministic). *)
let set_surge t ~time factor =
  if factor <= 0. then invalid_arg "Switch_model.set_surge: factor <= 0";
  if factor <> t.surge then begin
    sync t ~time;
    t.surge <- factor;
    List.iter
      (fun f ->
        let r = effective_rate t f in
        if r <> f.rate then begin
          rate_delta t f (r -. f.rate);
          f.rate <- r;
          t.rate_dirty <- true
        end)
      (active_flows t)
  end

let check_port t port =
  if port < 0 || port >= Array.length t.ports then
    invalid_arg (Printf.sprintf "Switch_model: port %d out of range" port)

let port_bytes t ~time ~port =
  check_port t port;
  sync t ~time;
  t.ports.(port).p_bytes

let watch_subject t ~time subj =
  sync t ~time;
  if not (Subject_map.mem subj t.subjects) then begin
    let s = { s_rate = 0.; s_bytes = 0. } in
    (* initialize the subject's rate from currently active flows *)
    t.subjects <- Subject_map.add subj s t.subjects;
    Hashtbl.iter
      (fun _ { flow = f; _ } ->
        let hit =
          match subj with
          | Filter.All_ports -> true
          | Filter.Port_counter p -> f.tuple.sport = p || f.tuple.dport = p
          | Filter.Prefix_counter p ->
              Ipaddr.Prefix.mem f.tuple.src p
              || Ipaddr.Prefix.mem f.tuple.dst p
          | Filter.Proto_counter p -> f.tuple.proto = p
        in
        if hit then s.s_rate <- s.s_rate +. f.rate)
      t.flows
  end

let subject_bytes t ~time subj =
  sync t ~time;
  match Subject_map.find_opt subj t.subjects with
  | Some s -> s.s_bytes
  | None -> 0.

let poll_subject t ~time subj =
  sync t ~time;
  match subj with
  | Filter.All_ports -> Array.map (fun p -> p.p_bytes) t.ports
  | _ -> [| subject_bytes t ~time subj |]

let refresh_rates t =
  if t.rate_dirty then begin
    t.rate_cache <- Hashtbl.fold (fun _ e acc -> acc +. e.flow.rate) t.flows 0.;
    (* adding a zero rate leaves a running sum unchanged, so the sums over
       the positive flows alone are the ones a walk over all flows in id
       order reaches at those flows *)
    t.smp_flows <-
      Array.of_list (List.filter (fun f -> f.rate > 0.) (active_flows t));
    let acc = ref 0. in
    t.smp_cum <-
      Array.map
        (fun f ->
          acc := !acc +. f.rate;
          !acc)
        t.smp_flows;
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
    (* the sums can fall short of a total folded in another order *)
    if i = n then None
    else
      let f = t.smp_flows.(i) in
      Some (Flow.packet ~flags:f.flags ~payload:f.payload f.tuple 1000)
  end
