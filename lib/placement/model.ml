module Analysis = Farm_almanac.Analysis
module Filter = Farm_net.Filter
module Lin = Farm_optim.Lin_expr

type poll_req = { subject : Filter.subject; ival : Analysis.ival_spec }

type seed_spec = {
  seed_id : int;
  task_id : int;
  candidates : int list;
  branches : Analysis.util_branch list;
  polls : poll_req list;
}

type switch_caps = { node : int; avail : float array }

type instance = {
  seeds : seed_spec list;
  switches : switch_caps list;
  alpha_poll : float;
  previous : assignment list;
}

and assignment = {
  a_seed : int;
  a_node : int;
  a_branch : int;
  a_res : float array;
}

type placement = { assignments : assignment list; utility : float }

let empty_placement = { assignments = []; utility = 0. }

let seed inst id =
  match List.find_opt (fun s -> s.seed_id = id) inst.seeds with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Model.seed: unknown seed %d" id)

let seed_index inst =
  let tbl = Hashtbl.create (List.length inst.seeds) in
  (* the first seed of an id wins, as in [seed] *)
  List.iter
    (fun s -> if not (Hashtbl.mem tbl s.seed_id) then Hashtbl.add tbl s.seed_id s)
    inst.seeds;
  Hashtbl.find_opt tbl

let caps inst node =
  match List.find_opt (fun c -> c.node = node) inst.switches with
  | Some c -> c
  | None -> invalid_arg (Printf.sprintf "Model.caps: unknown switch %d" node)

let tasks inst =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let cur = Option.value (Hashtbl.find_opt tbl s.task_id) ~default:[] in
      Hashtbl.replace tbl s.task_id (s :: cur))
    inst.seeds;
  Hashtbl.fold (fun t ss acc -> (t, List.rev ss) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let total_utility inst assignments =
  let seed_of = seed_index inst in
  let utility a =
    match seed_of a.a_seed with
    | None -> invalid_arg (Printf.sprintf "Model.seed: unknown seed %d" a.a_seed)
    | Some s -> (
        match List.nth_opt s.branches a.a_branch with
        | Some b -> Analysis.eval_utility b a.a_res
        | None -> 0.)
  in
  (* summed in assignment order: the float result does not depend on the
     index *)
  List.fold_left (fun acc a -> acc +. utility a) 0. assignments

(* per-subject aggregated polling demand at [node] *)
let poll_demand inst assignments ~node =
  let subj_demand = ref [] in
  List.iter
    (fun a ->
      if a.a_node = node then
        let s = seed inst a.a_seed in
        List.iter
          (fun p ->
            let d = inst.alpha_poll *. Analysis.poll_rate p.ival a.a_res in
            let rec bump = function
              | [] -> [ (p.subject, d) ]
              | (subj, d0) :: rest when Filter.subject_equal subj p.subject ->
                  (subj, Float.max d0 d) :: rest
              | x :: rest -> x :: bump rest
            in
            subj_demand := bump !subj_demand)
          s.polls)
    assignments;
  List.fold_left (fun acc (_, d) -> acc +. d) 0. !subj_demand

let pcie = Analysis.resource_index Analysis.Pcie

let validate inst assignments =
  let problems = ref [] in
  let report fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  (* each seed at most once *)
  let seen = Hashtbl.create 64 in
  List.iter
    (fun a ->
      if Hashtbl.mem seen a.a_seed then
        report "seed %d placed more than once" a.a_seed
      else Hashtbl.replace seen a.a_seed ())
    assignments;
  (* C1: all-or-nothing per task *)
  List.iter
    (fun (t, ss) ->
      let placed =
        List.filter (fun s -> Hashtbl.mem seen s.seed_id) ss
      in
      if placed <> [] && List.length placed <> List.length ss then
        report "task %d is only partially placed (C1)" t)
    (tasks inst);
  (* candidate sets, C2, C3 *)
  List.iter
    (fun a ->
      let s = seed inst a.a_seed in
      if not (List.mem a.a_node s.candidates) then
        report "seed %d placed outside its candidate set" a.a_seed;
      (match List.nth_opt s.branches a.a_branch with
      | None -> report "seed %d uses unknown utility branch %d" a.a_seed a.a_branch
      | Some b ->
          if not (Analysis.branch_feasible b a.a_res) then
            report "seed %d violates its resource constraints (C2)" a.a_seed);
      let c = caps inst a.a_node in
      Array.iteri
        (fun r v ->
          if v > c.avail.(r) +. 1e-6 then
            report "seed %d exceeds switch %d capacity for %s (C3)" a.a_seed
              a.a_node
              (Analysis.resource_name (List.nth Analysis.all_resources r)))
        a.a_res)
    assignments;
  (* C4: per-switch totals; PCIe via aggregated polling demand *)
  List.iter
    (fun c ->
      let on_node = List.filter (fun a -> a.a_node = c.node) assignments in
      Array.iteri
        (fun r avail ->
          if r <> pcie then begin
            let used =
              List.fold_left (fun acc a -> acc +. a.a_res.(r)) 0. on_node
            in
            if used > avail +. 1e-6 then
              report "switch %d over capacity for %s (C4): %.3f > %.3f"
                c.node
                (Analysis.resource_name (List.nth Analysis.all_resources r))
                used avail
          end)
        c.avail;
      let pd = poll_demand inst assignments ~node:c.node in
      if pd > c.avail.(pcie) +. 1e-6 then
        report "switch %d over polling capacity (C4): %.3f > %.3f" c.node pd
          c.avail.(pcie))
    inst.switches;
  List.rev !problems

let utility_upper_bound inst (s : seed_spec) =
  let max_res =
    Array.init Analysis.n_resources (fun r ->
        List.fold_left (fun acc c -> Float.max acc c.avail.(r)) 0.
          inst.switches)
  in
  List.fold_left
    (fun acc b ->
      Float.max acc (Float.max 0. (Analysis.eval_utility b max_res)))
    0. s.branches

(* ------------------------------------------------------------------ *)
(* Random instances (Fig. 7 workload)                                  *)
(* ------------------------------------------------------------------ *)

let random_instance ~rng ~switches ~tasks ~seeds_per_task () =
  let module Rng = Farm_sim.Rng in
  let vcpu = Analysis.resource_index Analysis.VCpu in
  let ram = Analysis.resource_index Analysis.Ram in
  let tcam = Analysis.resource_index Analysis.TcamR in
  let switch_list =
    List.init switches (fun node ->
        let avail = Array.make Analysis.n_resources 0. in
        avail.(vcpu) <- 4.;
        avail.(ram) <- 8192.;
        avail.(tcam) <- 512.;
        avail.(pcie) <- 1000.;  (* polls/s budget over the PCIe bus *)
        { node; avail })
  in
  let seeds = ref [] in
  let seed_id = ref 0 in
  for task_id = 0 to tasks - 1 do
    (* each task has a characteristic demand profile *)
    let cpu_need = Rng.uniform rng 0.05 0.5 in
    let ram_need = Rng.uniform rng 16. 256. in
    let poll_subject =
      match Rng.int rng 3 with
      | 0 -> Filter.All_ports
      | 1 -> Filter.Port_counter (Rng.int rng 16)
      | _ -> Filter.Proto_counter Farm_net.Flow.Tcp
    in
    let poll_every = Rng.uniform rng 0.02 0.5 in
    for _ = 1 to seeds_per_task do
      (* candidate set: a handful of switches, or pinned *)
      let n_cands = 1 + Rng.int rng 3 in
      let candidates =
        List.sort_uniq Int.compare
          (List.init n_cands (fun _ -> Rng.int rng switches))
      in
      let constraints =
        [ Lin.sub (Lin.var vcpu) (Lin.const cpu_need);
          Lin.sub (Lin.var ram) (Lin.const ram_need) ]
      in
      (* utility rewards extra CPU up to a point: min(10*vCPU, cap) *)
      let cap = Rng.uniform rng 2. 10. in
      let branch =
        { Analysis.constraints;
          utility = [ Lin.var ~coeff:10. vcpu; Lin.const cap ] }
      in
      seeds :=
        { seed_id = !seed_id; task_id; candidates; branches = [ branch ];
          polls =
            [ { subject = poll_subject;
                ival = Analysis.Const_ival poll_every } ] }
        :: !seeds;
      incr seed_id
    done
  done;
  { seeds = List.rev !seeds; switches = switch_list; alpha_poll = 1.;
    previous = [] }
