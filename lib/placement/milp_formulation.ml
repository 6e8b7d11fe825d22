module Analysis = Farm_almanac.Analysis
module Filter = Farm_net.Filter
module Lin = Farm_optim.Lin_expr
module Simplex = Farm_optim.Simplex
module Milp = Farm_optim.Milp

type result = {
  placement : Model.placement;
  status : Milp.status;
  runtime_s : float;
  nodes : int;
}

let nres = Analysis.n_resources
let pcie = Analysis.resource_index Analysis.Pcie

(* One placement option: seed s, utility branch b, candidate node n. *)
type option_ = {
  o_seed : Model.seed_spec;
  o_branch : int;
  o_node : int;
  (* variable indices *)
  v_plc : int;
  v_res : int;  (* nres consecutive variables *)
  v_t : int;
}

let solve ?(timeout = 10.) ?(max_cells = 40_000_000) ?warm_start
    (inst : Model.instance) =
  let t0 = Unix.gettimeofday () in
  let finish placement status nodes =
    { placement; status; runtime_s = Unix.gettimeofday () -. t0; nodes }
  in
  (* ---------------- variable layout ---------------- *)
  let next_var = ref 0 in
  let fresh k =
    let v = !next_var in
    next_var := v + k;
    v
  in
  let task_ids = List.map fst (Model.tasks inst) in
  let tplc = Hashtbl.create 16 in
  List.iter (fun t -> Hashtbl.replace tplc t (fresh 1)) task_ids;
  let options =
    List.concat_map
      (fun (s : Model.seed_spec) ->
        List.concat_map
          (fun n ->
            List.mapi
              (fun b _ ->
                { o_seed = s; o_branch = b; o_node = n; v_plc = fresh 1;
                  v_res = fresh nres; v_t = fresh 1 })
              s.branches)
          s.candidates)
      inst.seeds
  in
  (* pollres variables per (node, subject) *)
  let pollres : (int * Filter.subject, int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun o ->
      List.iter
        (fun (p : Model.poll_req) ->
          let key = (o.o_node, p.subject) in
          if not (Hashtbl.mem pollres key) then
            Hashtbl.replace pollres key (fresh 1))
        o.o_seed.polls)
    options;
  let nvars = !next_var in
  (* ---------------- size guard ---------------- *)
  (* Rows per constraint family, counted before any is built: C1 (one per
     seed, one per task), per option (C2, C3, the utility pieces and cap,
     one pollres bound per poll), and C4 per switch (every resource but
     PCIe, plus the poll total where some pollres variable lives). *)
  let poll_nodes = Hashtbl.create 64 in
  Hashtbl.iter (fun (n, _) _ -> Hashtbl.replace poll_nodes n ()) pollres;
  let option_rows o =
    let b = List.nth o.o_seed.branches o.o_branch in
    List.length b.constraints + nres + List.length b.utility + 1
    + List.length o.o_seed.polls
  in
  let switch_rows (c : Model.switch_caps) =
    nres - 1 + if Hashtbl.mem poll_nodes c.node then 1 else 0
  in
  let rows =
    List.length inst.seeds + List.length task_ids
    + List.fold_left (fun acc o -> acc + option_rows o) 0 options
    + List.fold_left (fun acc c -> acc + switch_rows c) 0 inst.switches
  in
  if (rows + 2) * (nvars + (2 * rows)) > max_cells then (
    (* the root relaxation alone would blow the deadline: return the warm
       start, as a real solver with a tight timeout effectively does *)
    match warm_start with
    | Some p -> finish p Milp.Feasible 0
    | None -> finish Model.empty_placement Milp.No_solution 0)
  else
  let integer = Array.make nvars false in
  Hashtbl.iter (fun _ v -> integer.(v) <- true) tplc;
  List.iter (fun o -> integer.(o.v_plc) <- true) options;
  (* remap a Lin over resource indices into option [o]'s res block *)
  let remap o l =
    List.fold_left
      (fun acc (r, c) -> Lin.add acc (Lin.var ~coeff:c (o.v_res + r)))
      (Lin.const (Lin.constant l))
      (Lin.coeffs l)
  in
  let constraints = ref [] in
  let addc c = constraints := c :: !constraints in
  (* group options by seed and by node to keep construction linear *)
  let options_by_seed = Hashtbl.create 256 in
  let options_by_node = Hashtbl.create 256 in
  List.iter
    (fun o ->
      let push tbl k =
        Hashtbl.replace tbl k
          (o :: Option.value (Hashtbl.find_opt tbl k) ~default:[])
      in
      push options_by_seed o.o_seed.seed_id;
      push options_by_node o.o_node)
    options;
  let seed_options id =
    Option.value (Hashtbl.find_opt options_by_seed id) ~default:[]
  in
  let node_options n =
    Option.value (Hashtbl.find_opt options_by_node n) ~default:[]
  in
  (* ---------------- C1 ---------------- *)
  List.iter
    (fun (s : Model.seed_spec) ->
      let sum =
        List.fold_left
          (fun acc o -> Lin.add acc (Lin.var o.v_plc))
          Lin.zero (seed_options s.seed_id)
      in
      let tv = Hashtbl.find tplc s.task_id in
      addc (Simplex.constr (Lin.sub sum (Lin.var tv)) Simplex.Eq 0.))
    inst.seeds;
  List.iter
    (fun t -> addc (Simplex.constr (Lin.var (Hashtbl.find tplc t)) Simplex.Le 1.))
    task_ids;
  (* ---------------- per-option constraints ---------------- *)
  List.iter
    (fun o ->
      let cap = Model.caps inst o.o_node in
      let branch = List.nth o.o_seed.branches o.o_branch in
      (* C2 linearized: c(res) - (1 - plc) * c(0) >= 0 *)
      List.iter
        (fun c ->
          let c0 = Lin.constant c in
          addc
            (Simplex.constr
               (Lin.add (remap o c) (Lin.var ~coeff:c0 o.v_plc))
               Simplex.Ge c0))
        branch.constraints;
      (* C3 *)
      for r = 0 to nres - 1 do
        addc
          (Simplex.constr
             (Lin.sub
                (Lin.var (o.v_res + r))
                (Lin.var ~coeff:cap.avail.(r) o.v_plc))
             Simplex.Le 0.)
      done;
      (* utility: t <= piece(res) - (1 - plc) * piece(0); t <= U * plc *)
      let ub = Model.utility_upper_bound inst o.o_seed in
      List.iter
        (fun piece ->
          let p0 = Lin.constant piece in
          addc
            (Simplex.constr
               (Lin.sub (Lin.var o.v_t)
                  (Lin.add (remap o piece) (Lin.var ~coeff:p0 o.v_plc)))
               Simplex.Le (-.p0)))
        branch.utility;
      addc
        (Simplex.constr
           (Lin.sub (Lin.var o.v_t) (Lin.var ~coeff:ub o.v_plc))
           Simplex.Le 0.);
      (* pollres lower bounds *)
      List.iter
        (fun (p : Model.poll_req) ->
          let pv = Hashtbl.find pollres (o.o_node, p.subject) in
          match p.ival with
          | Analysis.Const_ival iv ->
              let d = inst.alpha_poll /. iv in
              addc
                (Simplex.constr
                   (Lin.sub (Lin.var pv) (Lin.var ~coeff:d o.v_plc))
                   Simplex.Ge 0.)
          | Analysis.Inv_linear l ->
              let l0 = Lin.constant l *. inst.alpha_poll in
              addc
                (Simplex.constr
                   (Lin.sub (Lin.var pv)
                      (Lin.add
                         (Lin.scale inst.alpha_poll (remap o l))
                         (Lin.var ~coeff:l0 o.v_plc)))
                   Simplex.Ge (-.l0)))
        o.o_seed.polls)
    options;
  (* ---------------- C4 ---------------- *)
  (* previous placement: seed -> (node, res) for migration doubling *)
  let prev = Hashtbl.create 16 in
  List.iter
    (fun (a : Model.assignment) -> Hashtbl.replace prev a.a_seed (a.a_node, a.a_res))
    inst.previous;
  List.iter
    (fun (c : Model.switch_caps) ->
      for r = 0 to nres - 1 do
        if r <> pcie then begin
          let total =
            List.fold_left
              (fun acc o -> Lin.add acc (Lin.var (o.v_res + r)))
              Lin.zero (node_options c.node)
          in
          (* migration: a seed previously on this switch that is placed
             elsewhere doubles its old footprint during state transfer.
             migr(s, n0) = tplc(task) - plc(s, n0). *)
          let total =
            Hashtbl.fold
              (fun seed_id (n0, res') acc ->
                if n0 = c.node && res'.(r) > 0. then begin
                  match
                    List.find_opt
                      (fun (s : Model.seed_spec) -> s.seed_id = seed_id)
                      inst.seeds
                  with
                  | None -> acc
                  | Some s ->
                      let tv = Hashtbl.find tplc s.task_id in
                      let here =
                        List.fold_left
                          (fun a o ->
                            if o.o_node = c.node then Lin.add a (Lin.var o.v_plc)
                            else a)
                          Lin.zero (seed_options seed_id)
                      in
                      Lin.add acc
                        (Lin.scale res'.(r)
                           (Lin.sub (Lin.var tv) here))
                end
                else acc)
              prev total
          in
          addc (Simplex.constr total Simplex.Le c.avail.(r))
        end
      done;
      let poll_total =
        Hashtbl.fold
          (fun (n, _) pv acc ->
            if n = c.node then Lin.add acc (Lin.var pv) else acc)
          pollres Lin.zero
      in
      if not (Lin.is_constant poll_total) then
        addc (Simplex.constr poll_total Simplex.Le c.avail.(pcie)))
    inst.switches;
  let constraints = !constraints in
  assert (List.length constraints = rows);
  (* ---------------- objective ---------------- *)
  let objective =
    List.fold_left (fun acc o -> Lin.add acc (Lin.var o.v_t)) Lin.zero options
  in
  (* ---------------- warm start ---------------- *)
  let warm_values =
    match warm_start with
    | None -> None
    | Some (p : Model.placement) ->
        let v = Array.make nvars 0. in
        let placed_tasks = Hashtbl.create 16 in
        List.iter
          (fun (a : Model.assignment) ->
            let s = Model.seed inst a.a_seed in
            Hashtbl.replace placed_tasks s.task_id ())
          p.assignments;
        Hashtbl.iter
          (fun t tv -> if Hashtbl.mem placed_tasks t then v.(tv) <- 1.)
          tplc;
        List.iter
          (fun (a : Model.assignment) ->
            match
              List.find_opt
                (fun o ->
                  o.o_seed.seed_id = a.a_seed && o.o_node = a.a_node
                  && o.o_branch = a.a_branch)
                options
            with
            | None -> ()
            | Some o ->
                v.(o.v_plc) <- 1.;
                Array.iteri (fun r x -> v.(o.v_res + r) <- x) a.a_res;
                let b = List.nth o.o_seed.branches o.o_branch in
                v.(o.v_t) <- Float.max 0. (Analysis.eval_utility b a.a_res))
          p.assignments;
        (* pollres: aggregated demand per (node, subject) *)
        Hashtbl.iter
          (fun (n, subj) pv ->
            let d =
              List.fold_left
                (fun acc (a : Model.assignment) ->
                  if a.a_node = n then
                    let s = Model.seed inst a.a_seed in
                    List.fold_left
                      (fun acc (pr : Model.poll_req) ->
                        if Filter.subject_equal pr.subject subj then
                          Float.max acc
                            (inst.alpha_poll
                            *. Analysis.poll_rate pr.ival a.a_res)
                        else acc)
                      acc s.polls
                  else acc)
                0. p.assignments
            in
            v.(pv) <- d)
          pollres;
        Some v
  in
  let r =
    Milp.solve ~timeout ?warm_start:warm_values ~nvars ~integer ~objective
      constraints
  in
  match r.status with
  | Milp.Optimal | Milp.Feasible ->
      let assignments =
        List.filter_map
          (fun o ->
            if r.values.(o.v_plc) > 0.5 then
              Some
                { Model.a_seed = o.o_seed.seed_id; a_node = o.o_node;
                  a_branch = o.o_branch;
                  a_res =
                    Array.init nres (fun i ->
                        Float.max 0. r.values.(o.v_res + i)) }
            else None)
          options
      in
      let utility = Model.total_utility inst assignments in
      finish { Model.assignments; utility } r.status r.nodes
  | Milp.Infeasible | Milp.Unbounded | Milp.No_solution ->
      finish Model.empty_placement r.status r.nodes
