module Analysis = Farm_almanac.Analysis
module Filter = Farm_net.Filter
module Lin = Farm_optim.Lin_expr
module Simplex = Farm_optim.Simplex

type phases = { redistribute : bool; migrate : bool }

let all_phases = { redistribute = true; migrate = true }
let greedy_only = { redistribute = false; migrate = false }

type stats = {
  placed_seeds : int;
  dropped_tasks : int;
  migrations : int;
  lp_solves : int;
  runtime_s : float;
}

let nres = Analysis.n_resources
let pcie = Analysis.resource_index Analysis.Pcie

(* ------------------------------------------------------------------ *)
(* Per-seed minimal allocation                                         *)
(* ------------------------------------------------------------------ *)

(* Minimal feasible resource point of a utility branch: minimize sum of
   resources subject to the branch constraints. *)
let min_alloc (branch : Analysis.util_branch) =
  let objective =
    List.fold_left (fun acc r -> Lin.add acc (Lin.var r)) Lin.zero
      (List.init nres Fun.id)
  in
  let constraints =
    List.map (fun c -> Simplex.constr c Simplex.Ge 0.) branch.constraints
  in
  match Simplex.minimize ~nvars:nres ~objective constraints with
  | Simplex.Optimal s -> Some (Array.map (fun v -> Float.max 0. v) s.values)
  | Simplex.Infeasible -> None
  | Simplex.Unbounded -> Some (Array.make nres 0.)

(* ------------------------------------------------------------------ *)
(* Per-call LP memo                                                    *)
(* ------------------------------------------------------------------ *)

(* One call solves many LPs that differ only in seed ids and switch
   names: the seeds of a task share their branches, and a fabric has many
   switches hosting the same mix of seed shapes.  Each LP is a function of
   a structural key, written out bit-exactly (floats by their IEEE bits,
   expressions by their sorted terms), so a hit returns exactly what the
   solver would have.  The memo lives for one call; [alpha_poll] is fixed
   within a call, so it stays out of the keys. *)
type memo = {
  allocs : (string, float array option) Hashtbl.t;
      (* branch constraints -> minimal allocation *)
  branches : (string, int) Hashtbl.t;  (* branch -> class id *)
  switches : (string, (float array * float) list) Hashtbl.t;
      (* switch LP -> per resident position: (res, utility) *)
  key : Buffer.t;
  mutable solves : int;
}

let new_memo () =
  { allocs = Hashtbl.create 64; branches = Hashtbl.create 64;
    switches = Hashtbl.create 64; key = Buffer.create 256; solves = 0 }

let add_int b i = Buffer.add_int64_le b (Int64.of_int i)
let add_float b f = Buffer.add_int64_le b (Int64.bits_of_float f)

let add_lin b l =
  add_float b (Lin.constant l);
  let cs = Lin.coeffs l in
  add_int b (List.length cs);
  List.iter (fun (i, c) -> add_int b i; add_float b c) cs

let add_lins b ls =
  add_int b (List.length ls);
  List.iter (add_lin b) ls

let memoized tbl m key solve =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
      m.solves <- m.solves + 1;
      let v = solve () in
      Hashtbl.add tbl key v;
      v

(* Class id and minimal allocation of a branch.  The allocation depends
   on the constraints alone, so branches that differ only in utility share
   its LP. *)
let branch_min m (branch : Analysis.util_branch) =
  Buffer.clear m.key;
  add_lins m.key branch.constraints;
  let alloc =
    memoized m.allocs m (Buffer.contents m.key) (fun () -> min_alloc branch)
  in
  add_lins m.key branch.utility;
  let key = Buffer.contents m.key in
  match Hashtbl.find_opt m.branches key with
  | Some cls -> (cls, alloc)
  | None ->
      let cls = Hashtbl.length m.branches in
      Hashtbl.add m.branches key cls;
      (cls, alloc)

(* Choose the branch with the best utility at its minimal allocation. *)
type seed_min = {
  sm_seed : Model.seed_spec;
  sm_branch : int;
  sm_class : int;  (* the branch's class id in the call's memo *)
  sm_res : float array;
  sm_util : float;
}

let seed_min_of m (s : Model.seed_spec) =
  let best = ref None in
  List.iteri
    (fun i branch ->
      match branch_min m branch with
      | _, None -> ()
      | cls, Some res ->
          let u = Analysis.eval_utility branch res in
          let better =
            match !best with Some (_, _, _, u0) -> u > u0 | None -> true
          in
          if better then best := Some (i, cls, res, u))
    s.branches;
  Option.map
    (fun (i, cls, res, u) ->
      { sm_seed = s; sm_branch = i; sm_class = cls; sm_res = Array.copy res;
        sm_util = u })
    !best

(* ------------------------------------------------------------------ *)
(* Capacity tracking during the greedy phase                           *)
(* ------------------------------------------------------------------ *)

type switch_state = {
  sw_caps : Model.switch_caps;
  remaining : float array;  (* non-PCIe remaining capacity *)
  (* per polling subject: current aggregated (max) demand *)
  mutable subj_demand : (Filter.subject * float) list;
  mutable pcie_used : float;
  mutable resident : seed_min list;
}

let poll_demands inst (s : Model.seed_spec) res =
  List.map
    (fun (p : Model.poll_req) ->
      (p.subject, inst.Model.alpha_poll *. Analysis.poll_rate p.ival res))
    s.polls

(* PCIe increment if [demands] lands on the switch (aggregation-aware). *)
let pcie_increment st demands =
  List.fold_left
    (fun acc (subj, d) ->
      let cur =
        match
          List.find_opt (fun (s0, _) -> Filter.subject_equal s0 subj)
            st.subj_demand
        with
        | Some (_, d0) -> d0
        | None -> 0.
      in
      acc +. Float.max 0. (d -. cur))
    0. demands

let commit_polls st demands =
  List.iter
    (fun (subj, d) ->
      let rec bump = function
        | [] -> [ (subj, d) ]
        | (s0, d0) :: rest when Filter.subject_equal s0 subj ->
            (s0, Float.max d0 d) :: rest
        | x :: rest -> x :: bump rest
      in
      st.subj_demand <- bump st.subj_demand)
    demands;
  st.pcie_used <-
    List.fold_left (fun acc (_, d) -> acc +. d) 0. st.subj_demand

let fits st inst (sm : seed_min) =
  let ok_res = ref true in
  Array.iteri
    (fun r v -> if r <> pcie && v > st.remaining.(r) +. 1e-9 then ok_res := false)
    sm.sm_res;
  !ok_res
  && pcie_increment st (poll_demands inst sm.sm_seed sm.sm_res)
     <= st.sw_caps.avail.(pcie) -. st.pcie_used +. 1e-9

let commit st inst (sm : seed_min) =
  Array.iteri
    (fun r v -> if r <> pcie then st.remaining.(r) <- st.remaining.(r) -. v)
    sm.sm_res;
  commit_polls st (poll_demands inst sm.sm_seed sm.sm_res);
  st.resident <- sm :: st.resident

let uncommit st inst (sm : seed_min) =
  Array.iteri
    (fun r v -> if r <> pcie then st.remaining.(r) <- st.remaining.(r) +. v)
    sm.sm_res;
  st.resident <-
    List.filter
      (fun r -> r.sm_seed.seed_id <> sm.sm_seed.seed_id)
      st.resident;
  (* rebuild aggregated subject demands from the remaining residents *)
  st.subj_demand <- [];
  st.pcie_used <- 0.;
  List.iter
    (fun r -> commit_polls st (poll_demands inst r.sm_seed r.sm_res))
    st.resident

(* ------------------------------------------------------------------ *)
(* LP resource redistribution (one LP per switch)                      *)
(* ------------------------------------------------------------------ *)

(* Variables: per seed s on the switch, res(s, r) (nres vars) and t_s; per
   distinct polling subject p, pollres_p.  Maximize sum of t_s. *)
let redistribute_switch inst (sms : seed_min list) (cap : Model.switch_caps) :
    (int * float array * float) list =
  let n = List.length sms in
  if n = 0 then []
  else begin
    let res_base i = i * nres in
    let t_var i = (n * nres) + i in
    (* distinct subjects on this switch *)
    let subjects =
      List.fold_left
        (fun acc sm ->
          List.fold_left
            (fun acc (p : Model.poll_req) ->
              if List.exists (Filter.subject_equal p.subject) acc then acc
              else p.subject :: acc)
            acc sm.sm_seed.polls)
        [] sms
    in
    let subj_index s =
      let rec go i = function
        | [] -> assert false
        | x :: rest ->
            if Filter.subject_equal x s then i else go (i + 1) rest
      in
      go 0 subjects
    in
    let pollres_var p = (n * nres) + n + subj_index p in
    let nvars = (n * nres) + n + List.length subjects in
    (* remap a Lin over resource indices to this seed's variable block *)
    let remap i l =
      List.fold_left
        (fun acc (r, c) -> Lin.add acc (Lin.var ~coeff:c (res_base i + r)))
        (Lin.const (Lin.constant l))
        (Lin.coeffs l)
    in
    let constraints = ref [] in
    let addc c = constraints := c :: !constraints in
    List.iteri
      (fun i sm ->
        let branch = List.nth sm.sm_seed.branches sm.sm_branch in
        (* C2: branch constraints *)
        List.iter
          (fun c -> addc (Simplex.constr (remap i c) Simplex.Ge 0.))
          branch.constraints;
        (* t_i <= each utility piece *)
        List.iter
          (fun piece ->
            addc
              (Simplex.constr
                 (Lin.sub (Lin.var (t_var i)) (remap i piece))
                 Simplex.Le 0.))
          branch.utility;
        (* C3: per-seed cap *)
        for r = 0 to nres - 1 do
          addc
            (Simplex.constr (Lin.var (res_base i + r)) Simplex.Le
               cap.avail.(r))
        done;
        (* polling demand ties pollres_p >= alpha * ival_inv(res_i) *)
        List.iter
          (fun (p : Model.poll_req) ->
            let demand =
              match p.ival with
              | Analysis.Const_ival iv ->
                  Lin.const (inst.Model.alpha_poll /. iv)
              | Analysis.Inv_linear l ->
                  Lin.scale inst.Model.alpha_poll (remap i l)
            in
            addc
              (Simplex.constr
                 (Lin.sub demand (Lin.var (pollres_var p.subject)))
                 Simplex.Le 0.))
          sm.sm_seed.polls)
      sms;
    (* C4: per-resource switch capacity *)
    for r = 0 to nres - 1 do
      if r <> pcie then begin
        let total =
          List.fold_left
            (fun (i, acc) _ -> (i + 1, Lin.add acc (Lin.var (res_base i + r))))
            (0, Lin.zero) sms
          |> snd
        in
        addc (Simplex.constr total Simplex.Le cap.avail.(r))
      end
    done;
    let poll_total =
      List.fold_left
        (fun acc p -> Lin.add acc (Lin.var (pollres_var p)))
        Lin.zero subjects
    in
    addc (Simplex.constr poll_total Simplex.Le cap.avail.(pcie));
    let objective =
      List.fold_left
        (fun (i, acc) _ -> (i + 1, Lin.add acc (Lin.var (t_var i))))
        (0, Lin.zero) sms
      |> snd
    in
    match Simplex.maximize ~nvars ~objective !constraints with
    | Simplex.Optimal sol ->
        List.mapi
          (fun i sm ->
            let res =
              Array.init nres (fun r ->
                  Float.max 0. sol.values.(res_base i + r))
            in
            let branch = List.nth sm.sm_seed.branches sm.sm_branch in
            (sm.sm_seed.seed_id, res, Analysis.eval_utility branch res))
          sms
    | Simplex.Infeasible | Simplex.Unbounded ->
        (* fall back to the minimal allocations *)
        List.map
          (fun sm -> (sm.sm_seed.seed_id, sm.sm_res, sm.sm_util))
          sms
  end

(* [redistribute_switch] through the memo.  The LP is fixed by the
   switch's capacities and, per resident in order, its branch, minimal
   allocation and polls, with each poll subject replaced by the index of
   its equality class on this switch (sharing, not naming, shapes the LP).
   Results map back by position. *)
let redistribute_memo m inst (sms : seed_min list) (cap : Model.switch_caps) =
  let b = m.key in
  Buffer.clear b;
  Array.iter (add_float b) cap.avail;
  let classes = ref [] and nclasses = ref 0 in
  let class_of subj =
    let rec go i = function
      | [] -> None
      | x :: rest ->
          if Filter.subject_equal x subj then Some i else go (i - 1) rest
    in
    match go (!nclasses - 1) !classes with
    | Some i -> i
    | None ->
        classes := subj :: !classes;
        incr nclasses;
        !nclasses - 1
  in
  List.iter
    (fun sm ->
      add_int b sm.sm_class;
      Array.iter (add_float b) sm.sm_res;
      add_int b (List.length sm.sm_seed.polls);
      List.iter
        (fun (p : Model.poll_req) ->
          add_int b (class_of p.subject);
          match p.ival with
          | Analysis.Const_ival iv -> add_int b 0; add_float b iv
          | Analysis.Inv_linear l -> add_int b 1; add_lin b l)
        sm.sm_seed.polls)
    sms;
  memoized m.switches m (Buffer.contents b) (fun () ->
      List.map (fun (_, res, u) -> (res, u)) (redistribute_switch inst sms cap))
  |> List.map2
       (fun sm (res, u) -> (sm.sm_seed.seed_id, Array.copy res, u))
       sms

(* ------------------------------------------------------------------ *)
(* Main                                                                 *)
(* ------------------------------------------------------------------ *)

let optimize ?(phases = all_phases) (inst : Model.instance) =
  let t0 = Unix.gettimeofday () in
  let memo = new_memo () in
  let prev_of =
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun (a : Model.assignment) -> Hashtbl.replace tbl a.a_seed a.a_node)
      inst.previous;
    fun id -> Hashtbl.find_opt tbl id
  in
  (* switch states *)
  let states = Hashtbl.create 64 in
  List.iter
    (fun (c : Model.switch_caps) ->
      Hashtbl.replace states c.node
        { sw_caps = c; remaining = Array.copy c.avail; subj_demand = [];
          pcie_used = 0.; resident = [] })
    inst.switches;
  let state_of node = Hashtbl.find states node in
  (* 1. per-seed minimal allocations, tasks sorted by decreasing minimum
     utility *)
  let task_list =
    Model.tasks inst
    |> List.filter_map (fun (t, seeds) ->
           let sms = List.map (seed_min_of memo) seeds in
           if List.exists Option.is_none sms then None  (* infeasible task *)
           else
             let sms = List.filter_map Fun.id sms in
             let min_u = List.fold_left (fun a sm -> a +. sm.sm_util) 0. sms in
             Some (t, min_u, sms))
    |> List.sort (fun (_, a, _) (_, b, _) -> Float.compare b a)
  in
  let dropped = ref ((List.length (Model.tasks inst)) - List.length task_list) in
  (* 2. greedy placement *)
  let placements : (int, seed_min * int) Hashtbl.t = Hashtbl.create 256 in
  let place_task (_t, _u, sms) =
    (* order seeds within the task by decreasing utility: highest
       contribution first ("choose s that adds the most") *)
    let sms =
      List.sort (fun a b -> Float.compare b.sm_util a.sm_util) sms
    in
    let committed = ref [] in
    let ok =
      List.for_all
        (fun sm ->
          (* candidate order: previous location first (avoid unnecessary
             migration), then best aggregation saving, then most spare CPU *)
          let scored =
            List.filter_map
              (fun node ->
                match Hashtbl.find_opt states node with
                | None -> None
                | Some st ->
                    if fits st inst sm then begin
                      let prev_bonus =
                        if prev_of sm.sm_seed.seed_id = Some node then 1e9
                        else 0.
                      in
                      let agg_saving =
                        (* demand avoided thanks to subjects already polled *)
                        let raw =
                          List.fold_left
                            (fun acc (_, d) -> acc +. d)
                            0.
                            (poll_demands inst sm.sm_seed sm.sm_res)
                        in
                        raw
                        -. pcie_increment st
                             (poll_demands inst sm.sm_seed sm.sm_res)
                      in
                      let spare = st.remaining.(0) in
                      Some (node, prev_bonus +. (agg_saving *. 1e3) +. spare)
                    end
                    else None)
              sm.sm_seed.candidates
          in
          match
            List.sort (fun (_, a) (_, b) -> Float.compare b a) scored
          with
          | [] -> false
          | (node, _) :: _ ->
              let st = state_of node in
              commit st inst sm;
              committed := (sm, node) :: !committed;
              true)
        sms
    in
    if ok then
      List.iter
        (fun (sm, node) -> Hashtbl.replace placements sm.sm_seed.seed_id (sm, node))
        !committed
    else begin
      (* C1: roll the whole task back *)
      List.iter (fun (sm, node) -> uncommit (state_of node) inst sm) !committed;
      incr dropped
    end
  in
  List.iter place_task task_list;
  (* assignments at minimal allocation *)
  let assignment_of sm node res =
    { Model.a_seed = sm.sm_seed.seed_id; a_node = node;
      a_branch = sm.sm_branch; a_res = res }
  in
  let current () =
    Hashtbl.fold (fun _ (sm, node) acc -> (sm, node) :: acc) placements []
    |> List.sort (fun ((a : seed_min), _) ((b : seed_min), _) ->
           Int.compare a.sm_seed.seed_id b.sm_seed.seed_id)
  in
  (* 3. redistribute resources switch by switch *)
  let redistribute () =
    let by_node = Hashtbl.create 64 in
    List.iter
      (fun (sm, node) ->
        let cur = Option.value (Hashtbl.find_opt by_node node) ~default:[] in
        Hashtbl.replace by_node node (sm :: cur))
      (current ());
    let nodes =
      Hashtbl.fold (fun node _ acc -> node :: acc) by_node []
      |> List.sort Int.compare
    in
    List.fold_left
      (fun acc node ->
        let sms = Hashtbl.find by_node node in
        let cap = (state_of node).sw_caps in
        let results = redistribute_memo memo inst sms cap in
        List.fold_left
          (fun acc (seed_id, res, _) ->
            let sm, _ = Hashtbl.find placements seed_id in
            assignment_of sm node res :: acc)
          acc results)
      [] nodes
  in
  let assignments =
    if phases.redistribute then redistribute ()
    else List.map (fun (sm, node) -> assignment_of sm node sm.sm_res) (current ())
  in
  (* 4.-5. migration by decreasing benefit (estimate via spare capacity) *)
  let migrations = ref 0 in
  let assignments =
    if not phases.migrate then assignments
    else begin
      (* benefit estimate: utility the seed could reach on another
         candidate given that switch's spare capacity, minus its current
         utility *)
      let util_of = Hashtbl.create 256 in
      List.iter
        (fun (a : Model.assignment) ->
          let sm, _ = Hashtbl.find placements a.a_seed in
          let b = List.nth sm.sm_seed.branches a.a_branch in
          Hashtbl.replace util_of a.a_seed (Analysis.eval_utility b a.a_res))
        assignments;
      let candidates_gain =
        List.filter_map
          (fun (a : Model.assignment) ->
            let sm, cur_node = Hashtbl.find placements a.a_seed in
            let cur_u =
              Option.value (Hashtbl.find_opt util_of a.a_seed) ~default:0.
            in
            let best =
              List.filter_map
                (fun node ->
                  if node = cur_node then None
                  else
                    match Hashtbl.find_opt states node with
                    | None -> None
                    | Some st ->
                        if not (fits st inst sm) then None
                        else begin
                          (* reachable utility: min alloc plus all spare *)
                          let reach =
                            Array.init nres (fun r ->
                                if r = pcie then
                                  Float.max sm.sm_res.(r)
                                    (st.sw_caps.avail.(r) -. st.pcie_used)
                                else sm.sm_res.(r) +. st.remaining.(r))
                          in
                          let b = List.nth sm.sm_seed.branches sm.sm_branch in
                          let u = Analysis.eval_utility b reach in
                          if u > cur_u +. 1e-9 then Some (node, u -. cur_u)
                          else None
                        end)
                sm.sm_seed.candidates
            in
            match
              List.sort (fun (_, a) (_, b) -> Float.compare b a) best
            with
            | [] -> None
            | (node, gain) :: _ -> Some (a.a_seed, node, gain))
          assignments
        |> List.sort (fun (_, _, a) (_, _, b) -> Float.compare b a)
      in
      List.iter
        (fun (seed_id, node, _gain) ->
          let sm, cur_node = Hashtbl.find placements seed_id in
          let st = state_of node in
          if fits st inst sm then begin
            uncommit (state_of cur_node) inst sm;
            commit st inst sm;
            Hashtbl.replace placements seed_id (sm, node);
            incr migrations
          end)
        candidates_gain;
      if !migrations > 0 && phases.redistribute then redistribute ()
      else if !migrations > 0 then
        List.map
          (fun (sm, node) -> assignment_of sm node sm.sm_res)
          (current ())
      else assignments
    end
  in
  let utility = Model.total_utility inst assignments in
  ( { Model.assignments; utility },
    { placed_seeds = List.length assignments; dropped_tasks = !dropped;
      migrations = !migrations; lp_solves = memo.solves;
      runtime_s = Unix.gettimeofday () -. t0 } )

(* ------------------------------------------------------------------ *)
(* Incremental re-optimization                                         *)
(* ------------------------------------------------------------------ *)

let optimize_incremental ?(phases = all_phases) (inst : Model.instance)
    ~affected =
  let is_affected id = List.mem id affected in
  let prev_of =
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun (a : Model.assignment) -> Hashtbl.replace tbl a.a_seed a.a_node)
      inst.previous;
    fun id -> Hashtbl.find_opt tbl id
  in
  let live node =
    List.exists (fun (c : Model.switch_caps) -> c.node = node) inst.switches
  in
  (* Pin every unaffected seed with a live previous location to that
     location; affected seeds (orphans of a failed switch, new arrivals)
     keep their full candidate sets.  Seeds whose previous site vanished
     are affected by definition. *)
  let pinned =
    { inst with
      seeds =
        List.map
          (fun (s : Model.seed_spec) ->
            match prev_of s.seed_id with
            | Some node
              when (not (is_affected s.seed_id))
                   && live node
                   && List.mem node s.candidates ->
                { s with candidates = [ node ] }
            | _ -> s)
          inst.seeds }
  in
  let placement, stats = optimize ~phases pinned in
  (* Pinning shrinks the solution space: if a task that the previous
     placement carried would now be dropped only because unaffected seeds
     cannot move, fall back to a full re-optimization (correctness beats
     incrementality). *)
  let seed_of = Model.seed_index inst in
  (* the tasks with at least one seed among [assignments] *)
  let placed_tasks assignments =
    let tasks = Hashtbl.create 16 in
    List.iter
      (fun (a : Model.assignment) ->
        match seed_of a.a_seed with
        | Some s -> Hashtbl.replace tasks s.task_id ()
        | None -> ())
      assignments;
    Hashtbl.mem tasks
  in
  let previously_placed = placed_tasks inst.previous in
  let placed_now = placed_tasks placement.assignments in
  let regression =
    List.exists
      (fun (tid, _) -> previously_placed tid && not (placed_now tid))
      (Model.tasks inst)
  in
  if regression then
    let placement, full = optimize ~phases inst in
    (placement, { full with lp_solves = stats.lp_solves + full.lp_solves })
  else (placement, stats)
