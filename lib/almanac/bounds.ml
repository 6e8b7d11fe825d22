(* Resource-bound inference (see bounds.mli).

   Costs are charged where the soil charges them, at the prices of the
   model the runtime builds from its calibration ([Soil.bounds_model]):
   - Soil polling: [poll_issue_cost] per ASIC poll (one per aggregation
     group and period), then per subscriber delivery
     [poll_process_cost * records/128 + poll_process_cost
      + aggregation_cost + ipc_cpu_cost], plus [handler_base_cost] charged
     by the seed's fire wrapper.
   - Time triggers: [handler_base_cost] by the soil timer and again by the
     fire wrapper.
   - Probes: free until a sampled packet matches, then [sample_cost]
     + PCIe transfer + IPC + dispatch — all traffic-dependent, so they
     only enter the worst case.
   - [addTCAMRule]/[removeTCAMRule]: [handler_base_cost] each (charged by
     the soil); [exec]: {!Builtins.exec_cost} of its literal command;
     [transit]: [handler_base_cost]. *)

type cost_model = {
  cores : float;
  poll_issue_cost : float;
  poll_process_cost : float;
  handler_base_cost : float;
  sample_cost : float;
  aggregation_cost : float;
  ipc_cpu_cost : float;
  counter_record_bytes : float;
  probe_packet_bytes : float;
  port_count : int;
  loop_bound : int;
  scalar_bytes : float;
  list_bytes : float;
}

type demand = {
  vcpu_floor : float;
  vcpu_worst : float;
  ram_bytes : float;
  tcam_rules : int;
  pcie_reads : float;
  pcie_reads_worst : float;
  deterministic : bool;
}

(* Cost of one execution of a handler body.  [floor] counts only code that
   runs unconditionally; [worst] assumes every branch takes its most
   expensive path and every loop runs [loop_bound] times.  [tcam] is the
   number of addTCAMRule call sites reachable in one execution (worst
   case); [transits] records whether the body can change state. *)
type body_cost = { floor : float; worst : float; tcam : int; transits : bool }

let zero_cost = { floor = 0.; worst = 0.; tcam = 0; transits = false }

let add_cost a b =
  { floor = a.floor +. b.floor;
    worst = a.worst +. b.worst;
    tcam = a.tcam + b.tcam;
    transits = a.transits || b.transits }

(* Collect the cost of every call embedded in an expression. *)
let rec expr_cost m (e : Ast.expr) =
  match e with
  | Ast.Bool _ | Ast.Int _ | Ast.Float _ | Ast.String _ | Ast.AnyLit
  | Ast.Var _ ->
      zero_cost
  | Ast.Field (e, _) | Ast.Unop (_, e) | Ast.FilterAtom (_, e) ->
      expr_cost m e
  | Ast.Binop (_, a, b) -> add_cost (expr_cost m a) (expr_cost m b)
  | Ast.ListLit es -> List.fold_left (fun c e -> add_cost c (expr_cost m e)) zero_cost es
  | Ast.StructLit (_, fs) ->
      List.fold_left (fun c (_, e) -> add_cost c (expr_cost m e)) zero_cost fs
  | Ast.Call (fn, args) ->
      let args_cost =
        List.fold_left (fun c e -> add_cost c (expr_cost m e)) zero_cost args
      in
      let own =
        match fn with
        | "addTCAMRule" ->
            { zero_cost with floor = m.handler_base_cost;
              worst = m.handler_base_cost; tcam = 1 }
        | "removeTCAMRule" ->
            { zero_cost with floor = m.handler_base_cost;
              worst = m.handler_base_cost }
        | "exec" ->
            let c =
              Builtins.exec_cost
                (match args with [ Ast.String s ] -> s | _ -> "")
            in
            { zero_cost with floor = c; worst = c }
        | _ -> zero_cost
      in
      add_cost args_cost own

let rec stmt_cost m (s : Ast.stmt) =
  match s.Ast.sk with
  | Ast.Decl (_, _, None) -> zero_cost
  | Ast.Decl (_, _, Some e) | Ast.Assign (_, e) | Ast.Return (Some e)
  | Ast.Send (e, _) | Ast.ExprStmt e ->
      expr_cost m e
  | Ast.Return None -> zero_cost
  | Ast.Transit e ->
      let c = expr_cost m e in
      { c with floor = c.floor +. m.handler_base_cost;
        worst = c.worst +. m.handler_base_cost; transits = true }
  | Ast.If (c, t, f) ->
      let cc = expr_cost m c in
      let tc = body_cost m t and fc = body_cost m f in
      (* only the condition runs unconditionally; TCAM sites in both arms
         count towards the installed-rules bound (the handler fires many
         times; different fires may take different arms) *)
      { floor = cc.floor;
        worst = cc.worst +. Float.max tc.worst fc.worst;
        tcam = cc.tcam + tc.tcam + fc.tcam;
        transits = cc.transits || tc.transits || fc.transits }
  | Ast.While (c, b) ->
      let cc = expr_cost m c in
      let bc = body_cost m b in
      let n = float_of_int m.loop_bound in
      { floor = cc.floor;
        worst = (n +. 1.) *. cc.worst +. (n *. bc.worst);
        tcam = cc.tcam + (m.loop_bound * bc.tcam);
        transits = cc.transits || bc.transits }

and body_cost m body =
  List.fold_left (fun c s -> add_cost c (stmt_cost m s)) zero_cost body

(* Sum the cost of every handler for [trig] active in state [st]:
   machine-level events apply in every state, in addition to the state's
   own. *)
let handlers_cost m (mach : Ast.machine) (st : Ast.state_decl) ~matches =
  let ev_cost acc (ev : Ast.event) =
    if matches ev.Ast.trigger then add_cost acc (body_cost m ev.Ast.body)
    else acc
  in
  let c = List.fold_left ev_cost zero_cost st.Ast.sevents in
  List.fold_left ev_cost c mach.Ast.mevents

let matches_var name = function
  | Ast.On_trigger_var (n, _) -> n = name
  | _ -> false

let records_of_subject m = function
  | Farm_net.Filter.All_ports -> m.port_count
  | Farm_net.Filter.Port_counter _ | Farm_net.Filter.Prefix_counter _
  | Farm_net.Filter.Proto_counter _ ->
      1

let ram_of_vars m (vars : Ast.var_decl list) =
  List.fold_left
    (fun acc (v : Ast.var_decl) ->
      acc
      +.
      match v.Ast.vtyp with
      | Ast.Tlist | Ast.Tstats -> m.list_bytes
      | _ -> m.scalar_bytes)
    0. vars

let infer ~model ~(machine : Ast.machine)
    ~(polls : Analysis.poll_summary list) ~(res : float array) () =
  let m = model in
  let states = machine.Ast.states in
  (* Per-state, per-trigger-variable cost of one firing; min/max over
     states gives floor/worst.  The floor uses the cheapest state: a seed
     is guaranteed to pay at least that much per firing wherever its
     transits take it. *)
  let min_max_over_states ~matches =
    match states with
    | [] -> (zero_cost, zero_cost)
    | _ ->
        let costs =
          List.map (fun st -> handlers_cost m machine st ~matches) states
        in
        let lo =
          List.fold_left
            (fun acc c -> if c.floor < acc.floor then c else acc)
            (List.hd costs) (List.tl costs)
        and hi =
          List.fold_left
            (fun acc c -> if c.worst > acc.worst then c else acc)
            (List.hd costs) (List.tl costs)
        in
        (lo, hi)
  in
  let acc_vcpu_floor = ref 0. in
  let acc_vcpu_worst = ref 0. in
  let acc_pcie = ref 0. in
  let acc_pcie_worst = ref 0. in
  let traffic_dependent = ref false in
  let body_conditional = ref false in
  let transits_in_handlers = ref false in
  List.iter
    (fun (p : Analysis.poll_summary) ->
      let rate = Analysis.poll_rate p.Analysis.ival res in
      let lo, hi = min_max_over_states ~matches:(matches_var p.Analysis.poll_name) in
      if lo.floor < hi.worst -. 1e-12 then body_conditional := true;
      if lo.transits || hi.transits then transits_in_handlers := true;
      match p.Analysis.ptrig with
      | Ast.Poll ->
          (* one delivery (and one handler fire) per subject per period *)
          let n_subj = List.length p.Analysis.subjects in
          let records =
            List.fold_left
              (fun acc s -> acc + records_of_subject m s)
              0 p.Analysis.subjects
          in
          let per_delivery =
            (m.poll_process_cost *. float_of_int records
             /. float_of_int (128 * max 1 n_subj))
            +. m.poll_process_cost +. m.aggregation_cost +. m.ipc_cpu_cost
            +. m.handler_base_cost
          in
          let issue = float_of_int n_subj *. m.poll_issue_cost in
          let fixed = rate *. (issue +. (float_of_int n_subj *. per_delivery)) in
          acc_vcpu_floor :=
            !acc_vcpu_floor
            +. fixed +. (rate *. float_of_int n_subj *. lo.floor);
          acc_vcpu_worst :=
            !acc_vcpu_worst
            +. fixed +. (rate *. float_of_int n_subj *. hi.worst);
          let reads = rate *. float_of_int records in
          acc_pcie := !acc_pcie +. reads;
          acc_pcie_worst := !acc_pcie_worst +. reads
      | Ast.Time ->
          (* soil timer charges dispatch once, the fire wrapper again *)
          let fixed = rate *. 2. *. m.handler_base_cost in
          acc_vcpu_floor := !acc_vcpu_floor +. fixed +. (rate *. lo.floor);
          acc_vcpu_worst := !acc_vcpu_worst +. fixed +. (rate *. hi.worst)
      | Ast.Probe ->
          (* nothing guaranteed: charges only when sampled traffic
             matches.  Worst case: every sampling tick delivers. *)
          traffic_dependent := true;
          let per_hit =
            m.sample_cost +. m.ipc_cpu_cost +. m.handler_base_cost
            +. hi.worst
          in
          acc_vcpu_worst := !acc_vcpu_worst +. (rate *. per_hit);
          acc_pcie_worst :=
            !acc_pcie_worst
            +. (rate *. m.probe_packet_bytes /. m.counter_record_bytes))
    polls;
  (* recv / enter / exit / realloc handlers run on events that are not
     rate-bound by a subscription; they contribute to the worst case via
     transits (each transit fires exit+enter once) but have no standalone
     rate.  Count their TCAM sites though — they can install rules. *)
  let all_bodies =
    List.concat_map (fun (st : Ast.state_decl) ->
        List.map (fun (ev : Ast.event) -> ev.Ast.body) st.Ast.sevents)
      states
    @ List.map (fun (ev : Ast.event) -> ev.Ast.body) machine.Ast.mevents
  in
  let tcam_rules =
    List.fold_left (fun acc b -> acc + (body_cost m b).tcam) 0 all_bodies
  in
  let ram =
    ram_of_vars m machine.Ast.mvars
    +. List.fold_left
         (fun acc (st : Ast.state_decl) ->
           Float.max acc (ram_of_vars m st.Ast.slocals))
         0. states
  in
  let deterministic =
    (not !traffic_dependent) && (not !body_conditional)
    && not !transits_in_handlers
  in
  { vcpu_floor = !acc_vcpu_floor;
    vcpu_worst = !acc_vcpu_worst;
    ram_bytes = ram;
    tcam_rules;
    pcie_reads = !acc_pcie;
    pcie_reads_worst = !acc_pcie_worst;
    deterministic }

(* ------------------------------------------------------------------ *)
(* B201: util-declared envelope vs. inferred floor                     *)

module Lin = Farm_optim.Lin_expr

let vcpu_idx = Analysis.resource_index Analysis.VCpu

(* Lower bound a single-variable constraint [a*x + k >= 0] implies for
   resource [i]; [None] when the constraint involves other variables or
   only bounds [x] from above. *)
let implied_lower i (c : Lin.t) =
  match Lin.vars c with
  | [ j ] when j = i ->
      let a = Lin.coeff c i and k = Lin.constant c in
      if a > 0. then Some (-.k /. a) else None
  | _ -> None

let branch_lower i (b : Analysis.util_branch) =
  List.fold_left
    (fun acc c ->
      match implied_lower i c with
      | Some lb -> Float.max acc lb
      | None -> acc)
    0. b.Analysis.constraints

let branch_mentions i (b : Analysis.util_branch) =
  List.exists (fun c -> List.mem i (Lin.vars c)) b.Analysis.constraints

let cross_check ~model ?file ~(machine : Ast.machine)
    ~(polls : Analysis.poll_summary list)
    ~(state_utils : (string * Analysis.util_summary) list) () =
  List.filter_map
    (fun (sname, (branches : Analysis.util_summary)) ->
      let cpu_branches = List.filter (branch_mentions vcpu_idx) branches in
      if cpu_branches = [] then None
      else
        (* the placement may pick any feasible branch: the seed is only
           guaranteed the cheapest declared envelope *)
        let declared =
          List.fold_left
            (fun acc b -> Float.min acc (branch_lower vcpu_idx b))
            infinity cpu_branches
        in
        (* evaluate rate-dependent polls at the declared allocation *)
        let res = Array.make Analysis.n_resources 0. in
        res.(vcpu_idx) <- declared;
        List.iter
          (fun (b : Analysis.util_branch) ->
            List.iter
              (fun c ->
                List.iter
                  (fun i ->
                    match implied_lower i c with
                    | Some lb when lb > res.(i) -> res.(i) <- lb
                    | _ -> ())
                  (Lin.vars c))
              b.Analysis.constraints)
          cpu_branches;
        let d = infer ~model ~machine ~polls ~res () in
        if d.vcpu_floor > declared +. 1e-9 then
          let st =
            List.find_opt
              (fun (s : Ast.state_decl) -> s.Ast.sname = sname)
              machine.Ast.states
          in
          let pos =
            match st with
            | Some { Ast.sutil = Some u; _ } -> u.Ast.uloc
            | Some s -> s.Ast.stloc
            | None -> Ast.no_pos
          in
          Some
            (Diagnostic.warningf ?file ~pos ~code:"B201"
               "machine %s, state %s: util constraints admit %.3f vCPU \
                cores but subscriptions alone consume %.3f cores"
               machine.Ast.mname sname declared d.vcpu_floor)
        else None)
    state_utils
