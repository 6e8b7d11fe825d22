(* Translation validation: per-handler equivalence of the AST (Interp)
   semantics and the compiled plan (Compile/Exec) semantics.

   Every handler unit of a machine — global initialization, state-local
   initialization (both start and transit modes), each (state, trigger)
   dispatch sequence and each recv arm — is symbolically executed twice
   through {!Symexec}: once over the interpreter's scope-chain store and
   once over the slot-indexed store driven by the {!Compile.plan}
   recorded during compilation.  The resulting path sets are matched by
   path condition and compared observation-by-observation: final store,
   emitted effects (sends, host calls, trigger-write notifications),
   pending transit and outcome.

   Any disagreement is a [V401] error carrying the witness path
   condition; paths the executor could not explore within budget are
   reported as [V402] warnings naming the bounding knob, and the unit's
   equivalence claim is weakened rather than wrongly asserted. *)

open Symexec

(* Handler units draw their symbolic inputs from the machine's variable
   declarations.  List- and stats-typed inputs are instantiated at a
   small set of concrete lengths (a "configuration") so that catalog
   loops of the form [while i < size(xs)] discharge concretely instead
   of hitting the unroll budget. *)

let inst_lengths = [ 0; 2 ]
let max_varying = 4 (* 2^4 = 16 configurations per unit, at most *)

let is_sizable = function Some (Ast.Tlist | Ast.Tstats) -> true | _ -> false

(* [(name, typ option)] inputs -> list of configurations, each mapping
   sizable names to lengths. *)
let configurations inputs =
  let sizable =
    List.filter_map (fun (n, t) -> if is_sizable t then Some (n, t) else None)
      inputs
  in
  let vary = List.filteri (fun i _ -> i < max_varying) sizable in
  let fixed = List.filteri (fun i _ -> i >= max_varying) sizable in
  let base = List.map (fun (n, t) -> (n, t, 2)) fixed in
  List.fold_left
    (fun acc (n, t) ->
      List.concat_map
        (fun cfg -> List.map (fun len -> (n, t, len) :: cfg) inst_lengths)
        acc)
    [ base ] vary

let sym_of_input cfg (name, typ) =
  match List.find_opt (fun (n, _, _) -> String.equal n name) cfg with
  | Some (_, Some Ast.Tstats, len) ->
      sstats
        (Array.init len (fun i ->
             Svar (Printf.sprintf "%s.%d" name i, Some Ast.Tfloat)))
  | Some (_, _, len) ->
      slist
        (List.init len (fun i -> Svar (Printf.sprintf "%s.%d" name i, None)))
  | None -> Svar (name, typ)

(* ------------------------------------------------------------------ *)
(* Path comparison                                                     *)
(* ------------------------------------------------------------------ *)

let effect_equal (a : effect_) (b : effect_) = compare a b = 0

let outcome_to_string = function
  | Running -> "normal completion"
  | Err m -> Printf.sprintf "runtime error %S" m
  | Aviol pos -> Printf.sprintf "assert violation at %s" (Ast.pos_to_string pos)
  | Unknown r -> Printf.sprintf "unknown (%s)" r

let pend_target = function
  | Some (Pconc (s, _)) -> Some (Con (Value.Str s))
  | Some (Psym (s, _)) -> Some s
  | None -> None

let opt_sym_to_string = function
  | None -> "(none)"
  | Some s -> sym_to_string s

(* First observable difference between two matched paths, or [None]. *)
let path_diff ~gnames ~lnames (pi : path) (pp : path) : string option =
  let differ what a b =
    Some (Printf.sprintf "%s: AST yields %s, compiled yields %s" what a b)
  in
  if pi.outcome <> pp.outcome then
    differ "outcome" (outcome_to_string pi.outcome)
      (outcome_to_string pp.outcome)
  else if not (Option.equal sym_equal (pend_target pi.pending)
                 (pend_target pp.pending))
  then
    differ "pending transit"
      (opt_sym_to_string (pend_target pi.pending))
      (opt_sym_to_string (pend_target pp.pending))
  else
    let store_diff kind peek names =
      List.find_map
        (fun n ->
          let vi = peek pi.store n and vp = peek pp.store n in
          if Option.equal sym_equal vi vp then None
          else
            differ
              (Printf.sprintf "%s %s" kind n)
              (opt_sym_to_string vi) (opt_sym_to_string vp))
        names
    in
    match store_diff "global" peek_global gnames with
    | Some d -> Some d
    | None -> (
        match store_diff "state local" peek_local lnames with
        | Some d -> Some d
        | None ->
            let ei = List.rev pi.effects and ep = List.rev pp.effects in
            if List.length ei <> List.length ep then
              differ "effect count"
                (string_of_int (List.length ei))
                (string_of_int (List.length ep))
            else
              List.find_map
                (fun (a, b) ->
                  if effect_equal a b then None
                  else
                    differ "effect" (effect_to_string a) (effect_to_string b))
                (List.combine ei ep))

(* Paths are matched by normalized path condition: both sides execute
   the same source bodies, so equivalent executions fork identically. *)
let pc_key (p : path) =
  List.sort_uniq compare
    (List.map (fun (t, b) -> (if b then "+" else "-") ^ sym_to_string t) p.pc)

let unknown_reasons paths =
  List.filter_map
    (fun p -> match p.outcome with Unknown r -> Some r | _ -> None)
    paths

(* Compare the two sides of one handler unit under one configuration.
   Returns at most one diagnostic: the first divergence found, or a
   V402 warning if either side exhausted a budget. *)
let compare_unit ~what ~pos ~gnames ~lnames (pi : path list) (pp : path list)
    : Diagnostic.t option =
  match unknown_reasons pi @ unknown_reasons pp with
  | r :: _ ->
      Some
        (Diagnostic.warningf ~pos ~code:"V402"
           "%s: bounded verification incomplete: %s" what r)
  | [] ->
      let module M = Map.Make (struct
        type t = string list

        let compare = compare
      end) in
      let group paths =
        List.fold_left
          (fun m p ->
            M.update (pc_key p)
              (function Some ps -> Some (p :: ps) | None -> Some [ p ])
              m)
          M.empty paths
      in
      let gi = group pi and gp = group pp in
      let v401 pc detail =
        Some
          (Diagnostic.errorf ~pos ~code:"V401"
             "%s: semantic divergence on path [%s]: %s" what (pc_to_string pc)
             detail)
      in
      let keys =
        List.sort_uniq compare
          (List.map fst (M.bindings gi) @ List.map fst (M.bindings gp))
      in
      List.fold_left
        (fun acc key ->
          match acc with
          | Some _ -> acc
          | None -> (
              match (M.find_opt key gi, M.find_opt key gp) with
              | Some (p :: _), None ->
                  v401 p.pc "path exists only under AST semantics"
              | None, Some (p :: _) ->
                  v401 p.pc "path exists only under compiled semantics"
              | Some pis, Some pps when List.length pis <> List.length pps ->
                  v401 (List.hd pis).pc
                    (Printf.sprintf
                       "path multiplicity differs (AST %d, compiled %d)"
                       (List.length pis) (List.length pps))
              | Some pis, Some pps ->
                  List.find_map
                    (fun (a, b) ->
                      match path_diff ~gnames ~lnames a b with
                      | Some d -> v401 a.pc d
                      | None -> None)
                    (List.combine (List.rev pis) (List.rev pps))
              | None, None | Some [], _ | _, Some [] -> None))
        None keys

(* ------------------------------------------------------------------ *)
(* Handler units                                                       *)
(* ------------------------------------------------------------------ *)

type side = {
  sd_funcs : funcs;
  sd_hooks : (string * Ast.trigger_type) list;
}

type vctx = {
  vx_budget : budget;
  vx_host : string list;
  vx_m : Ast.machine;  (* resolved machine, as compiled *)
  vx_plan : Compile.plan;
  vx_i : side;
  vx_p : side;
}

let fresh_ctx vx side =
  make_ctx ~budget:vx.vx_budget ~host_builtins:vx.vx_host ~funcs:side.sd_funcs
    ~hooks:side.sd_hooks ()

let dedup_names names =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun n ->
      if Hashtbl.mem seen n then false
      else begin
        Hashtbl.replace seen n ();
        true
      end)
    names

(* Declared inputs of a machine / state, in declaration order. *)
let global_inputs (m : Ast.machine) =
  dedup_names
    (List.map (fun (v : Ast.var_decl) -> v.vname) m.mvars
    @ List.map (fun (t : Ast.trig_decl) -> t.tname) m.mtrigs)
  |> List.map (fun n ->
         match
           List.find_opt (fun (v : Ast.var_decl) -> v.vname = n) m.mvars
         with
         | Some v -> (n, Some v.vtyp)
         | None -> (n, None))

let local_inputs (st : Ast.state_decl) =
  dedup_names (List.map (fun (v : Ast.var_decl) -> v.vname) st.slocals)
  |> List.map (fun n ->
         let v =
           List.find (fun (v : Ast.var_decl) -> v.vname = n) st.slocals
         in
         (n, Some v.vtyp))

let vstate_of vx (name : string) =
  List.find
    (fun (vs : Compile.vstate) -> String.equal vs.Compile.vs_name name)
    vx.vx_plan.Compile.v_states

(* Build the two stores for a unit executing in state [st] with the
   given symbolic inputs. *)
let mk_stores vx ~(st : Ast.state_decl) ~globals ~locals =
  ( mk_istore ~globals ~locals,
    mk_pstore ~plan:vx.vx_plan ~globals ~state:(vstate_of vx st.sname) ~locals
  )

(* Run one dispatch unit on both sides under every configuration and
   report the first divergence. *)
let check_dispatch vx ~what ~pos ~(st : Ast.state_decl)
    ~(ievents : Ast.event list) ~(pevents : Compile.vevent list)
    ~(binding_typ : Ast.typ option) : Diagnostic.t list =
  if List.length ievents <> List.length pevents then
    [ Diagnostic.errorf ~pos ~code:"V401"
        "%s: dispatch differs: AST runs %d event(s), compiled runs %d" what
        (List.length ievents) (List.length pevents) ]
  else if ievents = [] then []
  else
    let gnames = global_inputs vx.vx_m and lnames = local_inputs st in
    let binding_input = ("(input)", binding_typ) in
    let cfgs = configurations (gnames @ lnames @ [ binding_input ]) in
    let gn = List.map fst gnames and ln = List.map fst lnames in
    List.fold_left
      (fun acc cfg ->
        if acc <> [] then acc
        else
          let globals = List.map (fun g -> (fst g, sym_of_input cfg g)) gnames in
          let locals = List.map (fun l -> (fst l, sym_of_input cfg l)) lnames in
          let binding = sym_of_input cfg binding_input in
          let si, sp = mk_stores vx ~st ~globals ~locals in
          let iev =
            List.map
              (fun (ev : Ast.event) ->
                let bindings =
                  match ev.trigger with
                  | Ast.On_trigger_var (_, Some x) -> [ (x, binding) ]
                  | Ast.On_recv (_, x, _) -> [ (x, binding) ]
                  | _ -> []
                in
                { eu_body = ev.body; eu_frame = Fnames bindings })
              ievents
          in
          let pev =
            List.map
              (fun (ve : Compile.vevent) ->
                { eu_body = ve.Compile.ve_body; eu_frame = Fplan ve })
              pevents
          in
          let pi = run_events (fresh_ctx vx vx.vx_i) si iev ~binding in
          let pp = run_events (fresh_ctx vx vx.vx_p) sp pev ~binding in
          match compare_unit ~what ~pos ~gnames:gn ~lnames:ln pi pp with
          | Some d -> [ d ]
          | None -> acc)
      [] cfgs

(* Initializer units. *)

let interp_global_inits (m : Ast.machine) : init_u list =
  List.map
    (fun (v : Ast.var_decl) ->
      { iu_name = v.vname;
        iu_slot = None;
        iu_kind =
          (if v.is_external then `External (Svar ("ext:" ^ v.vname, Some v.vtyp))
           else
             match v.vinit with
             | Some e -> `Expr e
             | None -> `Default v.vtyp) })
    m.mvars
  @ List.map
      (fun (t : Ast.trig_decl) ->
        { iu_name = t.tname;
          iu_slot = None;
          iu_kind =
            (match t.tinit with Some e -> `Expr e | None -> `Unit) })
      m.mtrigs

let plan_global_inits (plan : Compile.plan) : init_u list =
  List.map
    (fun (slot, name, is_ext, vinit) ->
      { iu_name = name;
        iu_slot = Some slot;
        iu_kind =
          (if is_ext then `External (Svar ("ext:" ^ name, None))
           else
             match (vinit : Compile.vinit) with
             | Compile.Vexpr e -> `Expr e
             | Compile.Vdefault t -> `Default t
             | Compile.Vunit -> `Unit) })
    plan.Compile.v_global_inits

(* External inputs must denote the same symbol on both sides; the plan
   side has no typ, so normalize both to untyped. *)
let untype_ext iu =
  match iu.iu_kind with
  | `External (Svar (n, _)) -> { iu with iu_kind = `External (Svar (n, None)) }
  | _ -> iu

let check_global_inits vx : Diagnostic.t list =
  let m = vx.vx_m in
  let what = Printf.sprintf "machine %s: variable initialization" m.mname in
  let pos = m.mloc in
  let ii = List.map untype_ext (interp_global_inits m) in
  let pi = List.map untype_ext (plan_global_inits vx.vx_plan) in
  if List.map (fun u -> u.iu_name) ii <> List.map (fun u -> u.iu_name) pi then
    [ Diagnostic.errorf ~pos ~code:"V401"
        "%s: initializer order differs: AST [%s], compiled [%s]" what
        (String.concat "; " (List.map (fun u -> u.iu_name) ii))
        (String.concat "; " (List.map (fun u -> u.iu_name) pi)) ]
  else
    let st0 = List.hd m.states in
    let si, sp = mk_stores vx ~st:st0 ~globals:[] ~locals:[] in
    let ri = run_inits_progressive (fresh_ctx vx vx.vx_i) si `Globals ii in
    let rp = run_inits_progressive (fresh_ctx vx vx.vx_p) sp `Globals pi in
    let gn = List.map fst (global_inputs m) in
    Option.to_list
      (compare_unit ~what ~pos ~gnames:gn ~lnames:[] ri rp)

let interp_local_inits (st : Ast.state_decl) : init_u list =
  List.map
    (fun (v : Ast.var_decl) ->
      { iu_name = v.vname;
        iu_slot = None;
        iu_kind =
          (match v.vinit with Some e -> `Expr e | None -> `Default v.vtyp) })
    st.slocals

let plan_local_inits (vs : Compile.vstate) : init_u list =
  List.map
    (fun (slot, name, vinit) ->
      { iu_name = name;
        iu_slot = Some slot;
        iu_kind =
          (match (vinit : Compile.vinit) with
          | Compile.Vexpr e -> `Expr e
          | Compile.Vdefault t -> `Default t
          | Compile.Vunit -> `Unit) })
    vs.Compile.vs_local_inits

(* Start-mode locals: progressive, from an empty locals table, globals
   already bound (run for the initial state only, as the engines do). *)
let check_start_locals vx (st : Ast.state_decl) : Diagnostic.t list =
  let what =
    Printf.sprintf "machine %s, state %s: state-local initialization (start)"
      vx.vx_m.mname st.sname
  in
  let pos = st.stloc in
  let ii = interp_local_inits st in
  let pl = plan_local_inits (vstate_of vx st.sname) in
  if List.map (fun u -> u.iu_name) ii <> List.map (fun u -> u.iu_name) pl then
    [ Diagnostic.errorf ~pos ~code:"V401"
        "%s: initializer order differs" what ]
  else
    let gnames = global_inputs vx.vx_m in
    let cfgs = configurations gnames in
    let gn = List.map fst gnames and ln = List.map fst (local_inputs st) in
    List.fold_left
      (fun acc cfg ->
        if acc <> [] then acc
        else
          let globals = List.map (fun g -> (fst g, sym_of_input cfg g)) gnames in
          let si, sp = mk_stores vx ~st ~globals ~locals:[] in
          let ri = run_inits_progressive (fresh_ctx vx vx.vx_i) si `Locals ii in
          let rp = run_inits_progressive (fresh_ctx vx vx.vx_p) sp `Locals pl in
          Option.to_list (compare_unit ~what ~pos ~gnames:gn ~lnames:ln ri rp))
      [] cfgs

(* Transit-mode locals of [tgt], entered from [src]: initializers read
   the old state's locals; the new locals replace them at the end. *)
let check_transit_locals vx ~(src : Ast.state_decl) ~(tgt : Ast.state_decl) :
    Diagnostic.t list =
  let what =
    Printf.sprintf
      "machine %s, transit %s -> %s: state-local initialization" vx.vx_m.mname
      src.sname tgt.sname
  in
  let pos = tgt.stloc in
  let ii = interp_local_inits tgt in
  let vt = vstate_of vx tgt.sname in
  let pl = plan_local_inits vt in
  if List.map (fun u -> u.iu_name) ii <> List.map (fun u -> u.iu_name) pl then
    [ Diagnostic.errorf ~pos ~code:"V401"
        "%s: initializer order differs" what ]
  else
    let gnames = global_inputs vx.vx_m and lnames = local_inputs src in
    let cfgs = configurations (gnames @ lnames) in
    let gn = List.map fst gnames in
    let tn = List.map fst (local_inputs tgt) in
    List.fold_left
      (fun acc cfg ->
        if acc <> [] then acc
        else
          let globals = List.map (fun g -> (fst g, sym_of_input cfg g)) gnames in
          let locals = List.map (fun l -> (fst l, sym_of_input cfg l)) lnames in
          let si, sp = mk_stores vx ~st:src ~globals ~locals in
          let new_names = vt.Compile.vs_local_names in
          let ri =
            run_local_inits_transit (fresh_ctx vx vx.vx_i) si ~new_names ii
          in
          let rp =
            run_local_inits_transit (fresh_ctx vx vx.vx_p) sp ~new_names pl
          in
          Option.to_list (compare_unit ~what ~pos ~gnames:gn ~lnames:tn ri rp))
      [] cfgs

let dispatch_pos (st : Ast.state_decl) = function
  | (e : Ast.event) :: _ -> e.evloc
  | [] -> st.stloc

let check_state vx (st : Ast.state_decl) : Diagnostic.t list =
  let m = vx.vx_m in
  let vs = vstate_of vx st.sname in
  let diags = ref [] in
  let add ds = diags := !diags @ ds in
  (* fixed dispatch keys *)
  List.iter
    (fun (key, pevents) ->
      let ievents = Semantics.events_for m st key in
      add
        (check_dispatch vx
           ~what:
             (Printf.sprintf "machine %s, state %s: on %s" m.mname st.sname
                (Semantics.key_name key))
           ~pos:(dispatch_pos st ievents)
           ~st ~ievents ~pevents ~binding_typ:None))
    [ (Semantics.Enter, vs.Compile.vs_enter);
      (Semantics.Exit, vs.Compile.vs_exit);
      (Semantics.Realloc, vs.Compile.vs_realloc) ];
  (* trigger variables *)
  List.iter
    (fun (name, pevents) ->
      let ievents = Semantics.events_for m st (Semantics.Var name) in
      let binding_typ =
        match List.assoc_opt name vx.vx_plan.Compile.v_trig_hooks with
        | Some (Ast.Poll | Ast.Probe) -> Some Ast.Tstats
        | Some Ast.Time | None -> None
      in
      add
        (check_dispatch vx
           ~what:
             (Printf.sprintf "machine %s, state %s: when %s" m.mname st.sname
                name)
           ~pos:(dispatch_pos st ievents)
           ~st ~ievents ~pevents ~binding_typ))
    vs.Compile.vs_triggers;
  (* recv arms: both engines scan the same ordered arm list and take the
     first (type, source) match, so it suffices that the arm signatures
     agree in order and each arm body is equivalent *)
  let iarms = Semantics.recv_arms m st in
  let isig = List.map (fun (ty, d, _) -> (ty, Semantics.source_name d)) iarms in
  let psig =
    List.map (fun (ty, d, _) -> (ty, Semantics.source_name d)) vs.Compile.vs_recv
  in
  if isig <> psig then
    add
      [ Diagnostic.errorf ~pos:st.stloc ~code:"V401"
          "machine %s, state %s: recv arms differ between AST and compiled \
           dispatch"
          m.mname st.sname ]
  else
    List.iter2
      (fun (ty, d, (ev : Ast.event)) (_, _, ve) ->
        add
          (check_dispatch vx
             ~what:
               (Printf.sprintf "machine %s, state %s: recv %s from %s" m.mname
                  st.sname (Ast.typ_to_string ty) (Semantics.source_name d))
             ~pos:ev.evloc ~st ~ievents:[ ev ] ~pevents:[ ve ]
             ~binding_typ:(Some ty)))
      iarms vs.Compile.vs_recv;
  !diags

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let verify_plan ?(budget = default_budget)
    ?(host_builtins = Builtins.soil_effects) ~(funcs : Ast.func_decl list)
    ~(machine : Ast.machine) ~(plan : Compile.plan) () : Diagnostic.t list =
  let m = machine in
  let hooks_i =
    List.sort compare
      (List.map (fun (t : Ast.trig_decl) -> (t.tname, t.ttyp)) m.mtrigs)
  in
  let vx =
    { vx_budget = budget;
      vx_host = host_builtins;
      vx_m = m;
      vx_plan = plan;
      vx_i =
        { sd_funcs = Ifuncs (List.map (fun (f : Ast.func_decl) -> (f.fname, f)) funcs);
          sd_hooks = hooks_i };
      vx_p =
        { sd_funcs = Pfuncs plan.Compile.v_funcs;
          sd_hooks = plan.Compile.v_trig_hooks } }
  in
  let structural =
    let initial =
      match m.states with s :: _ -> s.sname | [] -> "(none)"
    in
    (if String.equal plan.Compile.v_initial initial then []
     else
       [ Diagnostic.errorf ~pos:m.mloc ~code:"V401"
           "machine %s: initial state differs: AST starts in %s, compiled in \
            %s"
           m.mname initial plan.Compile.v_initial ])
    @
    let inames = List.map (fun (s : Ast.state_decl) -> s.sname) m.states in
    let pnames =
      List.map (fun (vs : Compile.vstate) -> vs.Compile.vs_name)
        plan.Compile.v_states
    in
    if inames <> pnames then
      [ Diagnostic.errorf ~pos:m.mloc ~code:"V401"
          "machine %s: state list differs: AST [%s], compiled [%s]" m.mname
          (String.concat "; " inames)
          (String.concat "; " pnames) ]
    else []
  in
  if structural <> [] then structural
  else
    let diags = ref (check_global_inits vx) in
    (match m.states with
    | st0 :: _ -> diags := !diags @ check_start_locals vx st0
    | [] -> ());
    List.iter
      (fun (src : Ast.state_decl) ->
        List.iter
          (fun (tgt : Ast.state_decl) ->
            if not (String.equal src.sname tgt.sname) then
              diags := !diags @ check_transit_locals vx ~src ~tgt)
          m.states)
      m.states;
    List.iter (fun st -> diags := !diags @ check_state vx st) m.states;
    Diagnostic.sort !diags

let verify ?budget ?host_builtins ~(program : Ast.program)
    ~(machine : string) () : Diagnostic.t list =
  let c = Compile.compile ~program ~machine in
  verify_plan ?budget ?host_builtins ~funcs:program.funcs
    ~machine:c.Compile.c_machine ~plan:c.Compile.c_plan ()

let verify_program ?budget ?host_builtins ~(program : Ast.program) () :
    Diagnostic.t list =
  List.concat_map
    (fun (m : Ast.machine) ->
      if m.states = [] then []
      else verify ?budget ?host_builtins ~program ~machine:m.mname ())
    program.machines
  |> Diagnostic.sort
