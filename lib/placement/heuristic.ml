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
  shapes : (string, int) Hashtbl.t;  (* a seed's part of a switch LP -> id *)
  switches : (string, (float array * float) list) Hashtbl.t;
      (* switch LP -> per resident position: (res, utility) *)
  key : Buffer.t;
  mutable solves : int;
}

let new_memo () =
  { allocs = Hashtbl.create 64; branches = Hashtbl.create 64;
    shapes = Hashtbl.create 64; switches = Hashtbl.create 64;
    key = Buffer.create 256; solves = 0 }

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

(* Id of [key] in [tbl], numbering keys in order of first sight. *)
let intern tbl key =
  match Hashtbl.find_opt tbl key with
  | Some id -> id
  | None ->
      let id = Hashtbl.length tbl in
      Hashtbl.add tbl key id;
      id

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
  (intern m.branches (Buffer.contents m.key), alloc)

(* The branch with the best utility at its minimal allocation. *)
type seed_min = {
  sm_branch : int;
  sm_b : Analysis.util_branch;
  sm_class : int;  (* the branch's class id in the call's memo *)
  sm_res : float array;  (* shared, never written *)
  sm_util : float;
}

let seed_min_of m branches =
  let best = ref None in
  List.iteri
    (fun i branch ->
      match branch_min m branch with
      | _, None -> ()
      | cls, Some res ->
          let u = Analysis.eval_utility branch res in
          let better =
            match !best with Some sm -> u > sm.sm_util | None -> true
          in
          if better then
            best :=
              Some
                { sm_branch = i; sm_b = branch; sm_class = cls; sm_res = res;
                  sm_util = u })
    branches;
  !best

(* ------------------------------------------------------------------ *)
(* Per-call index                                                      *)
(* ------------------------------------------------------------------ *)

(* What a seed's branches and polls fix for the whole call: its minimal
   allocation, its polls' subjects interned to ints and their demands at
   that allocation.  The seeds of one task machine share their [branches]
   and [polls] lists, so they share one shape. *)
type shape = {
  sm : seed_min;
  polls : Model.poll_req list;
  subj : int array;  (* interned subject of each poll *)
  dem : float array;  (* polling demand of each poll at [sm.sm_res] *)
  raw : float;  (* [dem] summed left to right *)
  lp_id : int;  (* the seed's part of a switch LP, interned *)
}

module Subjects = Hashtbl.Make (struct
  type t = Filter.subject

  let equal = Filter.subject_equal
  let hash = Hashtbl.hash
end)

let shape_of m subjects alpha sm (polls : Model.poll_req list) =
  let subj =
    Array.of_list
      (List.map
         (fun (p : Model.poll_req) ->
           match Subjects.find_opt subjects p.subject with
           | Some id -> id
           | None ->
               let id = Subjects.length subjects in
               Subjects.add subjects p.subject id;
               id)
         polls)
  in
  let dem =
    Array.of_list
      (List.map
         (fun (p : Model.poll_req) ->
           alpha *. Analysis.poll_rate p.ival sm.sm_res)
         polls)
  in
  (* the switch LP reads the branch, the minimal allocation and the poll
     intervals; which subjects a seed shares is the switch's part *)
  let b = m.key in
  Buffer.clear b;
  add_int b sm.sm_class;
  Array.iter (add_float b) sm.sm_res;
  add_int b (Array.length subj);
  List.iter
    (fun (p : Model.poll_req) ->
      match p.ival with
      | Analysis.Const_ival iv -> add_int b 0; add_float b iv
      | Analysis.Inv_linear l -> add_int b 1; add_lin b l)
    polls;
  { sm; polls; subj; dem; raw = Array.fold_left ( +. ) 0. dem;
    lp_id = intern m.shapes (Buffer.contents b) }

type seed = {
  spec : Model.seed_spec;
  sh : shape;
  prev : int;  (* switch of the previous placement, or -1 *)
  mutable at : int;  (* switch the seed is placed on, or -1 *)
  mutable res : float array;  (* its allocation there *)
  mutable util : float;  (* its utility at [res] *)
}

(* A switch's capacity during the call, and its residents. *)
type switch = {
  caps : Model.switch_caps;
  remaining : float array;  (* non-PCIe remaining capacity *)
  (* polled subjects in order of first demand, and per subject the
     aggregated (max) demand: the first [npolled] entries are live *)
  mutable polled : int array;
  mutable pdem : float array;
  mutable npolled : int;
  mutable pcie_used : float;  (* [pdem] summed left to right *)
  mutable resident : seed list;  (* newest first *)
}

(* [List.stable_sort cmp l], without sorting when [l] is in order already,
   as the seeds of a task machine are *)
let sorted cmp l =
  let rec ordered = function
    | a :: (b :: _ as rest) -> cmp a b <= 0 && ordered rest
    | [] | [ _ ] -> true
  in
  if ordered l then l else List.stable_sort cmp l

(* The switches ordered by node, the last of a node winning. *)
let switch_index switches =
  let rec last_of_each = function
    | (a : Model.switch_caps) :: (b :: _ as rest) when a.node = b.node ->
        last_of_each rest
    | c :: rest -> c :: last_of_each rest
    | [] -> []
  in
  sorted (fun (a : Model.switch_caps) b -> Int.compare a.node b.node) switches
  |> last_of_each
  |> List.map (fun (c : Model.switch_caps) ->
         { caps = c; remaining = Array.copy c.avail; polled = [||];
           pdem = [||]; npolled = 0; pcie_used = 0.; resident = [] })
  |> Array.of_list

(* index of [node] in [sws] between [lo] and [hi], or -1 *)
let rec find_switch sws node lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) / 2 in
    let m = sws.(mid).caps.node in
    if m = node then mid
    else if m < node then find_switch sws node (mid + 1) hi
    else find_switch sws node lo mid

let switch_of sws node = find_switch sws node 0 (Array.length sws)

(* The feasible tasks, each with its summed minimal utility and its seeds
   in instance order, ascending by task id; the count of infeasible ones;
   and the count of distinct poll subjects.  A seed's shape is computed
   once per run of seeds sharing their [branches] and [polls] lists, and
   through the structural memo otherwise. *)
let index_tasks m (inst : Model.instance) ~prev_of =
  let subjects = Subjects.create 16 in
  let last = ref None in
  let shape (s : Model.seed_spec) =
    match !last with
    | Some (branches, polls, sh) when branches == s.branches && polls == s.polls
      ->
        sh
    | _ ->
        let sh =
          Option.map
            (fun sm -> shape_of m subjects inst.alpha_poll sm s.polls)
            (seed_min_of m s.branches)
        in
        last := Some (s.branches, s.polls, sh);
        sh
  in
  let by_task (a : Model.seed_spec) (b : Model.seed_spec) =
    Int.compare a.task_id b.task_id
  in
  let specs = Array.of_list (sorted by_task inst.seeds) in
  let n = Array.length specs in
  let tasks = ref [] and infeasible = ref 0 in
  let i = ref 0 in
  while !i < n do
    let task = specs.(!i).task_id in
    let seeds = ref [] and feasible = ref true and min_u = ref 0. in
    while !i < n && specs.(!i).task_id = task do
      let spec = specs.(!i) in
      (match shape spec with
      | Some sh ->
          seeds :=
            { spec; sh; prev = prev_of spec.seed_id; at = -1;
              res = sh.sm.sm_res; util = sh.sm.sm_util }
            :: !seeds;
          min_u := !min_u +. sh.sm.sm_util
      | None -> feasible := false);
      incr i
    done;
    if !feasible then tasks := (!min_u, List.rev !seeds) :: !tasks
    else incr infeasible
  done;
  (List.rev !tasks, !infeasible, Subjects.length subjects)

(* ------------------------------------------------------------------ *)
(* Capacity tracking during the greedy phase                           *)
(* ------------------------------------------------------------------ *)

(* position of subject [s] among the switch's polled subjects, or -1 *)
let polled_index sw s =
  let i = ref 0 in
  while !i < sw.npolled && sw.polled.(!i) <> s do incr i done;
  if !i < sw.npolled then !i else -1

(* PCIe increment if [sh] lands on the switch (aggregation-aware). *)
let pcie_increment sw sh =
  let acc = ref 0. in
  for k = 0 to Array.length sh.subj - 1 do
    let i = polled_index sw sh.subj.(k) in
    let cur = if i < 0 then 0. else sw.pdem.(i) in
    acc := !acc +. Float.max 0. (sh.dem.(k) -. cur)
  done;
  !acc

let add_demands sw sh =
  for k = 0 to Array.length sh.subj - 1 do
    let i = polled_index sw sh.subj.(k) in
    if i >= 0 then sw.pdem.(i) <- Float.max sw.pdem.(i) sh.dem.(k)
    else begin
      if sw.npolled = Array.length sw.polled then begin
        let grow = max 4 sw.npolled in
        sw.polled <- Array.append sw.polled (Array.make grow 0);
        sw.pdem <- Array.append sw.pdem (Array.make grow 0.)
      end;
      sw.polled.(sw.npolled) <- sh.subj.(k);
      sw.pdem.(sw.npolled) <- sh.dem.(k);
      sw.npolled <- sw.npolled + 1
    end
  done

let sum_demands sw =
  let acc = ref 0. in
  for i = 0 to sw.npolled - 1 do acc := !acc +. sw.pdem.(i) done;
  sw.pcie_used <- !acc

let fits sw sh =
  let res = sh.sm.sm_res in
  let ok = ref true in
  for r = 0 to Array.length res - 1 do
    if r <> pcie && res.(r) > sw.remaining.(r) +. 1e-9 then ok := false
  done;
  !ok
  && pcie_increment sw sh <= sw.caps.avail.(pcie) -. sw.pcie_used +. 1e-9

let commit sws w sd =
  let sw = sws.(w) and res = sd.sh.sm.sm_res in
  for r = 0 to Array.length res - 1 do
    if r <> pcie then sw.remaining.(r) <- sw.remaining.(r) -. res.(r)
  done;
  add_demands sw sd.sh;
  sum_demands sw;
  sw.resident <- sd :: sw.resident;
  sd.at <- w

let uncommit sws sd =
  let sw = sws.(sd.at) and res = sd.sh.sm.sm_res in
  for r = 0 to Array.length res - 1 do
    if r <> pcie then sw.remaining.(r) <- sw.remaining.(r) +. res.(r)
  done;
  sw.resident <- List.filter (fun r -> r != sd) sw.resident;
  (* rebuild aggregated subject demands from the remaining residents *)
  sw.npolled <- 0;
  List.iter (fun r -> add_demands sw r.sh) sw.resident;
  sum_demands sw;
  sd.at <- -1

(* Candidate order: previous location first (avoid unnecessary migration),
   then best aggregation saving, then most spare CPU; the first candidate
   wins a tie.  -1 if the seed fits nowhere. *)
let rec best_switch sws sd best best_score = function
  | [] -> best
  | node :: rest ->
      let w = switch_of sws node in
      if w < 0 || not (fits sws.(w) sd.sh) then
        best_switch sws sd best best_score rest
      else
        let sw = sws.(w) in
        let prev_bonus = if sd.prev = w then 1e9 else 0. in
        (* demand avoided thanks to subjects already polled *)
        let agg_saving = sd.sh.raw -. pcie_increment sw sd.sh in
        let score = prev_bonus +. (agg_saving *. 1e3) +. sw.remaining.(0) in
        if best < 0 || Float.compare score best_score > 0 then
          best_switch sws sd w score rest
        else best_switch sws sd best best_score rest

(* ------------------------------------------------------------------ *)
(* LP resource redistribution (one LP per switch)                      *)
(* ------------------------------------------------------------------ *)

(* Variables: per seed s on the switch, res(s, r) (nres vars) and t_s; per
   distinct polling subject p, pollres_p.  Maximize sum of t_s. *)
let redistribute_switch (inst : Model.instance) (sds : seed list)
    (cap : Model.switch_caps) : (float array * float) list =
  let n = List.length sds in
  let res_base i = i * nres in
  let t_var i = (n * nres) + i in
  (* distinct subjects on this switch *)
  let subjects =
    List.fold_left
      (fun acc sd ->
        Array.fold_left
          (fun acc s -> if List.mem s acc then acc else s :: acc)
          acc sd.sh.subj)
      [] sds
  in
  let subj_index s =
    let rec go i = function
      | [] -> assert false
      | x :: rest -> if x = s then i else go (i + 1) rest
    in
    go 0 subjects
  in
  let pollres_var s = (n * nres) + n + subj_index s in
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
    (fun i sd ->
      let branch = sd.sh.sm.sm_b in
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
          (Simplex.constr (Lin.var (res_base i + r)) Simplex.Le cap.avail.(r))
      done;
      (* polling demand ties pollres_p >= alpha * ival_inv(res_i) *)
      List.iteri
        (fun k (p : Model.poll_req) ->
          let demand =
            match p.ival with
            | Analysis.Const_ival iv -> Lin.const (inst.alpha_poll /. iv)
            | Analysis.Inv_linear l -> Lin.scale inst.alpha_poll (remap i l)
          in
          addc
            (Simplex.constr
               (Lin.sub demand (Lin.var (pollres_var sd.sh.subj.(k))))
               Simplex.Le 0.))
        sd.sh.polls)
    sds;
  (* C4: per-resource switch capacity *)
  for r = 0 to nres - 1 do
    if r <> pcie then begin
      let total =
        List.fold_left
          (fun (i, acc) _ -> (i + 1, Lin.add acc (Lin.var (res_base i + r))))
          (0, Lin.zero) sds
        |> snd
      in
      addc (Simplex.constr total Simplex.Le cap.avail.(r))
    end
  done;
  let poll_total =
    List.fold_left
      (fun acc s -> Lin.add acc (Lin.var (pollres_var s)))
      Lin.zero subjects
  in
  addc (Simplex.constr poll_total Simplex.Le cap.avail.(pcie));
  let objective =
    List.fold_left
      (fun (i, acc) _ -> (i + 1, Lin.add acc (Lin.var (t_var i))))
      (0, Lin.zero) sds
    |> snd
  in
  match Simplex.maximize ~nvars ~objective !constraints with
  | Simplex.Optimal sol ->
      List.mapi
        (fun i sd ->
          let res =
            Array.init nres (fun r -> Float.max 0. sol.values.(res_base i + r))
          in
          (res, Analysis.eval_utility sd.sh.sm.sm_b res))
        sds
  | Simplex.Infeasible | Simplex.Unbounded ->
      (* fall back to the minimal allocations *)
      List.map (fun sd -> (sd.sh.sm.sm_res, sd.sh.sm.sm_util)) sds

(* [redistribute_switch] through the memo.  The LP is fixed by the
   switch's capacities and, per resident in order, its shape id, with
   each poll subject replaced by the index of its class on this switch
   (sharing, not naming, shapes the LP).  [seen] is scratch space for
   those classes.  Results map back by position. *)
let redistribute_memo m inst seen sw (sds : seed list) =
  let b = m.key in
  Buffer.clear b;
  for r = 0 to Array.length sw.caps.avail - 1 do
    add_float b sw.caps.avail.(r)
  done;
  let nseen = ref 0 in
  List.iter
    (fun sd ->
      add_int b sd.sh.lp_id;
      for k = 0 to Array.length sd.sh.subj - 1 do
        let s = sd.sh.subj.(k) in
        let i = ref 0 in
        while !i < !nseen && seen.(!i) <> s do incr i done;
        if !i = !nseen then begin
          seen.(!i) <- s;
          incr nseen
        end;
        add_int b !i
      done)
    sds;
  memoized m.switches m (Buffer.contents b) (fun () ->
      redistribute_switch inst sds sw.caps)

(* ------------------------------------------------------------------ *)
(* Migration                                                           *)
(* ------------------------------------------------------------------ *)

(* Benefit estimate of moving [sd] to switch [w]: the utility it could
   reach there at its minimal allocation plus all spare capacity, minus
   its current utility; 0. if that is no gain.  [reach] is scratch. *)
let gain sws reach sd w =
  let sw = sws.(w) in
  if w = sd.at || not (fits sw sd.sh) then 0.
  else begin
    let res = sd.sh.sm.sm_res in
    for r = 0 to nres - 1 do
      reach.(r) <-
        (if r = pcie then Float.max res.(r) (sw.caps.avail.(r) -. sw.pcie_used)
         else res.(r) +. sw.remaining.(r))
    done;
    let u = Analysis.eval_utility sd.sh.sm.sm_b reach in
    if u > sd.util +. 1e-9 then u -. sd.util else 0.
  end

(* The candidate of largest gain, the first winning a tie. *)
let rec best_move sws reach sd best best_gain = function
  | [] -> if best < 0 then None else Some (sd, best, best_gain)
  | node :: rest ->
      let w = switch_of sws node in
      let g = if w < 0 then 0. else gain sws reach sd w in
      if g > 0. && (best < 0 || Float.compare g best_gain > 0) then
        best_move sws reach sd w g rest
      else best_move sws reach sd best best_gain rest

(* ------------------------------------------------------------------ *)
(* Main                                                                 *)
(* ------------------------------------------------------------------ *)

let optimize ?(phases = all_phases) (inst : Model.instance) =
  let t0 = Unix.gettimeofday () in
  let memo = new_memo () in
  let sws = switch_index inst.switches in
  let prev_of =
    let tbl = Hashtbl.create (2 * List.length inst.previous) in
    (* [find] returns the last binding added, as [replace] would keep *)
    List.iter
      (fun (a : Model.assignment) -> Hashtbl.add tbl a.a_seed a.a_node)
      inst.previous;
    fun id ->
      match Hashtbl.find tbl id with
      | node -> switch_of sws node
      | exception Not_found -> -1
  in
  (* 1. per-seed minimal allocations, tasks sorted by decreasing minimum
     utility *)
  let tasks, infeasible, nsubjects = index_tasks memo inst ~prev_of in
  let tasks =
    List.stable_sort (fun (a, _) (b, _) -> Float.compare b a) tasks
  in
  let dropped = ref infeasible in
  (* 2. greedy placement *)
  let place_task (_, sds) =
    (* order seeds within the task by decreasing utility: highest
       contribution first ("choose s that adds the most") *)
    let sds =
      sorted (fun a b -> Float.compare b.sh.sm.sm_util a.sh.sm.sm_util) sds
    in
    let rec go committed = function
      | [] -> ()
      | sd :: rest ->
          let w = best_switch sws sd (-1) 0. sd.spec.candidates in
          if w >= 0 then begin
            commit sws w sd;
            go (sd :: committed) rest
          end
          else begin
            (* C1: roll the whole task back *)
            List.iter (uncommit sws) committed;
            incr dropped
          end
    in
    go [] sds
  in
  List.iter place_task tasks;
  (* the placed seeds by seed id; without redistribution they keep the
     minimal allocations they were indexed with *)
  let placed () =
    Array.fold_left (fun acc sw -> List.rev_append sw.resident acc) [] sws
    |> List.sort (fun a b -> Int.compare a.spec.seed_id b.spec.seed_id)
  in
  (* 3. redistribute resources switch by switch, in node order; the
     assignments come out by decreasing node, each switch's seeds by
     increasing id *)
  let seen = Array.make nsubjects 0 in
  let redistribute () =
    let order = ref [] in
    Array.iter
      (fun sw ->
        match sw.resident with
        | [] -> ()
        | resident ->
            let sds =
              sorted
                (fun a b -> Int.compare b.spec.seed_id a.spec.seed_id)
                resident
            in
            List.iter2
              (fun sd (res, u) ->
                sd.res <- Array.copy res;
                sd.util <- u;
                order := sd :: !order)
              sds
              (redistribute_memo memo inst seen sw sds))
      sws;
    !order
  in
  let order = if phases.redistribute then redistribute () else placed () in
  (* 4.-5. migration by decreasing benefit (estimate via spare capacity) *)
  let migrations = ref 0 in
  let order =
    if not phases.migrate then order
    else begin
      let reach = Array.make nres 0. in
      let candidates_gain =
        List.filter_map
          (fun sd -> best_move sws reach sd (-1) 0. sd.spec.candidates)
          order
        |> List.stable_sort (fun (_, _, a) (_, _, b) -> Float.compare b a)
      in
      List.iter
        (fun (sd, w, _gain) ->
          if fits sws.(w) sd.sh then begin
            uncommit sws sd;
            commit sws w sd;
            incr migrations
          end)
        candidates_gain;
      if !migrations > 0 && phases.redistribute then redistribute ()
      else if !migrations > 0 then placed ()
      else order
    end
  in
  let assignments =
    List.map
      (fun sd ->
        { Model.a_seed = sd.spec.seed_id; a_node = sws.(sd.at).caps.node;
          a_branch = sd.sh.sm.sm_branch; a_res = sd.res })
      order
  in
  (* summed in assignment order, as [Model.total_utility] does *)
  let utility = List.fold_left (fun acc sd -> acc +. sd.util) 0. order in
  ( { Model.assignments; utility },
    { placed_seeds = List.length assignments; dropped_tasks = !dropped;
      migrations = !migrations; lp_solves = memo.solves;
      runtime_s = Unix.gettimeofday () -. t0 } )

(* ------------------------------------------------------------------ *)
(* Incremental re-optimization                                         *)
(* ------------------------------------------------------------------ *)

let optimize_incremental ?(phases = all_phases) (inst : Model.instance)
    ~affected =
  let affected_set = Hashtbl.create 16 in
  List.iter (fun id -> Hashtbl.replace affected_set id ()) affected;
  let prev_of =
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun (a : Model.assignment) -> Hashtbl.replace tbl a.a_seed a.a_node)
      inst.previous;
    fun id -> Hashtbl.find_opt tbl id
  in
  let live = Hashtbl.create 64 in
  List.iter
    (fun (c : Model.switch_caps) -> Hashtbl.replace live c.node ())
    inst.switches;
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
              when (not (Hashtbl.mem affected_set s.seed_id))
                   && Hashtbl.mem live node
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
