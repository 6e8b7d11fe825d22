(* The placement heuristic (paper Alg. 1) as it was before its per-call
   LP memo: every seed solves its own minimal-allocation LPs and every
   switch its own redistribution LP.  A frozen reference for
   test_placement's memoised-vs-reference property; [optimize] returns the
   placement and the number of migrations. *)

module Model = Farm_placement.Model
module Analysis = Farm_almanac.Analysis
module Filter = Farm_net.Filter
module Lin = Farm_optim.Lin_expr
module Simplex = Farm_optim.Simplex

type phases = { redistribute : bool; migrate : bool }

let all_phases = { redistribute = true; migrate = true }
let greedy_only = { redistribute = false; migrate = false }

(* Model.total_utility as it was before its seed index: one linear seed
   lookup per assignment, summed in assignment order. *)
let total_utility (inst : Model.instance) assignments =
  List.fold_left
    (fun acc (a : Model.assignment) ->
      let s =
        match
          List.find_opt
            (fun (s : Model.seed_spec) -> s.seed_id = a.a_seed)
            inst.seeds
        with
        | Some s -> s
        | None -> invalid_arg "Ref_heuristic.total_utility: unknown seed"
      in
      acc
      +.
      match List.nth_opt s.branches a.a_branch with
      | Some b -> Analysis.eval_utility b a.a_res
      | None -> 0.)
    0. assignments

let nres = Analysis.n_resources
let pcie = Analysis.resource_index Analysis.Pcie

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

type seed_min = {
  sm_seed : Model.seed_spec;
  sm_branch : int;
  sm_res : float array;
  sm_util : float;
}

let seed_min_of (s : Model.seed_spec) =
  let best = ref None in
  List.iteri
    (fun i branch ->
      match min_alloc branch with
      | None -> ()
      | Some res ->
          let u = Analysis.eval_utility branch res in
          let better =
            match !best with Some (_, _, u0) -> u > u0 | None -> true
          in
          if better then best := Some (i, res, u))
    s.branches;
  Option.map
    (fun (i, res, u) -> { sm_seed = s; sm_branch = i; sm_res = res; sm_util = u })
    !best

type switch_state = {
  sw_caps : Model.switch_caps;
  remaining : float array;
  mutable subj_demand : (Filter.subject * float) list;
  mutable pcie_used : float;
  mutable resident : seed_min list;
}

let poll_demands inst (s : Model.seed_spec) res =
  List.map
    (fun (p : Model.poll_req) ->
      (p.subject, inst.Model.alpha_poll *. Analysis.poll_rate p.ival res))
    s.polls

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
  st.subj_demand <- [];
  st.pcie_used <- 0.;
  List.iter
    (fun r -> commit_polls st (poll_demands inst r.sm_seed r.sm_res))
    st.resident

let redistribute_switch inst (sms : seed_min list) (cap : Model.switch_caps) :
    (int * float array * float) list =
  let n = List.length sms in
  if n = 0 then []
  else begin
    let res_base i = i * nres in
    let t_var i = (n * nres) + i in
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
        List.iter
          (fun c -> addc (Simplex.constr (remap i c) Simplex.Ge 0.))
          branch.constraints;
        List.iter
          (fun piece ->
            addc
              (Simplex.constr
                 (Lin.sub (Lin.var (t_var i)) (remap i piece))
                 Simplex.Le 0.))
          branch.utility;
        for r = 0 to nres - 1 do
          addc
            (Simplex.constr (Lin.var (res_base i + r)) Simplex.Le
               cap.avail.(r))
        done;
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
        List.map
          (fun sm -> (sm.sm_seed.seed_id, sm.sm_res, sm.sm_util))
          sms
  end

let optimize ?(phases = all_phases) (inst : Model.instance) =
  let prev_of =
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun (a : Model.assignment) -> Hashtbl.replace tbl a.a_seed a.a_node)
      inst.previous;
    fun id -> Hashtbl.find_opt tbl id
  in
  let states = Hashtbl.create 64 in
  List.iter
    (fun (c : Model.switch_caps) ->
      Hashtbl.replace states c.node
        { sw_caps = c; remaining = Array.copy c.avail; subj_demand = [];
          pcie_used = 0.; resident = [] })
    inst.switches;
  let state_of node = Hashtbl.find states node in
  let task_list =
    Model.tasks inst
    |> List.filter_map (fun (t, seeds) ->
           let sms = List.map seed_min_of seeds in
           if List.exists Option.is_none sms then None
           else
             let sms = List.filter_map Fun.id sms in
             let min_u = List.fold_left (fun a sm -> a +. sm.sm_util) 0. sms in
             Some (t, min_u, sms))
    |> List.sort (fun (_, a, _) (_, b, _) -> Float.compare b a)
  in
  let placements : (int, seed_min * int) Hashtbl.t = Hashtbl.create 256 in
  let place_task (_t, _u, sms) =
    let sms =
      List.sort (fun a b -> Float.compare b.sm_util a.sm_util) sms
    in
    let committed = ref [] in
    let ok =
      List.for_all
        (fun sm ->
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
    else
      List.iter (fun (sm, node) -> uncommit (state_of node) inst sm) !committed
  in
  List.iter place_task task_list;
  let assignment_of sm node res =
    { Model.a_seed = sm.sm_seed.seed_id; a_node = node;
      a_branch = sm.sm_branch; a_res = res }
  in
  let current () =
    Hashtbl.fold (fun _ (sm, node) acc -> (sm, node) :: acc) placements []
    |> List.sort (fun ((a : seed_min), _) ((b : seed_min), _) ->
           Int.compare a.sm_seed.seed_id b.sm_seed.seed_id)
  in
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
        let results = redistribute_switch inst sms cap in
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
  let migrations = ref 0 in
  let assignments =
    if not phases.migrate then assignments
    else begin
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
  let utility = total_utility inst assignments in
  ({ Model.assignments; utility }, !migrations)

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
  let placement, migrations = optimize ~phases pinned in
  let placed_task tid (p : Model.placement) =
    List.exists
      (fun (a : Model.assignment) ->
        match
          List.find_opt
            (fun (s : Model.seed_spec) -> s.seed_id = a.a_seed)
            inst.seeds
        with
        | Some s -> s.task_id = tid
        | None -> false)
      p.assignments
  in
  let previously_placed tid =
    List.exists
      (fun (a : Model.assignment) ->
        match
          List.find_opt
            (fun (s : Model.seed_spec) -> s.seed_id = a.a_seed)
            inst.seeds
        with
        | Some s -> s.task_id = tid
        | None -> false)
      inst.previous
  in
  let regression =
    List.exists
      (fun (tid, _) -> previously_placed tid && not (placed_task tid placement))
      (Model.tasks inst)
  in
  if regression then optimize ~phases inst else (placement, migrations)
