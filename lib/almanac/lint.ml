(* Machine-level semantic lint; see the .mli for the code table. *)

module StringSet = Set.Make (String)

(* ------------------------------------------------------------------ *)
(* Identifier-use collection                                           *)
(* ------------------------------------------------------------------ *)

(* Every identifier an expression mentions (variables and field bases;
   function names are not variables). *)
let rec expr_uses acc (e : Ast.expr) =
  match e with
  | Ast.Bool _ | Ast.Int _ | Ast.Float _ | Ast.String _ | Ast.AnyLit -> acc
  | Ast.Var v -> StringSet.add v acc
  | Ast.Field (b, _) -> expr_uses acc b
  | Ast.Call (_, args) -> List.fold_left expr_uses acc args
  | Ast.Unop (_, a) -> expr_uses acc a
  | Ast.Binop (_, a, b) -> expr_uses (expr_uses acc a) b
  | Ast.FilterAtom (_, a) -> expr_uses acc a
  | Ast.StructLit (_, fields) ->
      List.fold_left (fun acc (_, e) -> expr_uses acc e) acc fields
  | Ast.ListLit es -> List.fold_left expr_uses acc es

let dest_uses acc = function
  | Ast.Harvester | Ast.Machine (_, None) -> acc
  | Ast.Machine (_, Some e) -> expr_uses acc e

(* [transit x] names a state, not a variable — skip its target. *)
let rec stmt_uses acc (s : Ast.stmt) =
  match s.Ast.sk with
  | Ast.Decl (_, n, init) ->
      let acc = StringSet.add n acc in
      (match init with Some e -> expr_uses acc e | None -> acc)
  | Ast.Assign (n, e) -> expr_uses (StringSet.add n acc) e
  | Ast.Transit _ -> acc
  | Ast.If (c, t, f) -> stmts_uses (stmts_uses (expr_uses acc c) t) f
  | Ast.While (c, b) -> stmts_uses (expr_uses acc c) b
  | Ast.Return None -> acc
  | Ast.Return (Some e) -> expr_uses acc e
  | Ast.Send (e, d) -> dest_uses (expr_uses acc e) d
  | Ast.ExprStmt e -> expr_uses acc e

and stmts_uses acc ss = List.fold_left stmt_uses acc ss

let event_uses acc (ev : Ast.event) =
  let acc =
    match ev.trigger with
    | Ast.On_trigger_var (y, _) -> StringSet.add y acc
    | Ast.On_enter | Ast.On_exit | Ast.On_realloc | Ast.On_recv _ -> acc
  in
  stmts_uses acc ev.body

let state_uses acc (s : Ast.state_decl) =
  let acc =
    List.fold_left
      (fun acc (v : Ast.var_decl) ->
        match v.vinit with Some e -> expr_uses acc e | None -> acc)
      acc s.slocals
  in
  let acc =
    match s.sutil with Some u -> stmts_uses acc u.ubody | None -> acc
  in
  List.fold_left event_uses acc s.sevents

let machine_uses (m : Ast.machine) =
  let acc = StringSet.empty in
  let acc =
    List.fold_left
      (fun acc (v : Ast.var_decl) ->
        match v.vinit with Some e -> expr_uses acc e | None -> acc)
      acc m.mvars
  in
  let acc =
    List.fold_left
      (fun acc (t : Ast.trig_decl) ->
        match t.tinit with Some e -> expr_uses acc e | None -> acc)
      acc m.mtrigs
  in
  let acc =
    List.fold_left
      (fun acc (p : Ast.place_decl) ->
        match p.pconstraint with
        | Ast.Anywhere -> acc
        | Ast.At_nodes es -> List.fold_left expr_uses acc es
        | Ast.On_range { pfilter; rbound; _ } ->
            let acc =
              match pfilter with Some f -> expr_uses acc f | None -> acc
            in
            expr_uses acc rbound)
      acc m.places
  in
  let acc = List.fold_left state_uses acc m.states in
  List.fold_left event_uses acc m.mevents

(* ------------------------------------------------------------------ *)
(* Transit structure                                                   *)
(* ------------------------------------------------------------------ *)

(* All transit targets anywhere in the bodies of some events. *)
let transit_targets (evs : Ast.event list) =
  List.concat_map
    (fun (ev : Ast.event) ->
      List.filter_map snd (Semantics.body_transits ev.body))
    evs

let has_transit ss =
  List.exists (fun (_, t) -> t <> None) (Semantics.body_transits ss)

(* ------------------------------------------------------------------ *)
(* L101 unreachable states                                             *)
(* ------------------------------------------------------------------ *)

let check_reachability ~diag (m : Ast.machine) =
  match m.states with
  | [] -> ()
  | initial :: _ ->
      (* machine-level handlers run in every state, so their transits are
         edges out of every reachable state *)
      let global_targets = transit_targets m.mevents in
      let targets_of (s : Ast.state_decl) =
        transit_targets s.sevents @ global_targets
      in
      let reachable = Hashtbl.create 8 in
      let rec visit name =
        if not (Hashtbl.mem reachable name) then begin
          Hashtbl.replace reachable name ();
          match
            List.find_opt (fun (s : Ast.state_decl) -> s.sname = name) m.states
          with
          | Some s -> List.iter visit (targets_of s)
          | None -> ()
        end
      in
      visit initial.sname;
      List.iter
        (fun (s : Ast.state_decl) ->
          if not (Hashtbl.mem reachable s.sname) then
            diag
              (Diagnostic.warningf ~pos:s.stloc ~code:"L101"
                 "machine %s: state %s is unreachable from the initial \
                  state %s"
                 m.mname s.sname initial.sname))
        m.states

(* ------------------------------------------------------------------ *)
(* L102 dead / shadowed transitions                                    *)
(* ------------------------------------------------------------------ *)

(* A [transit] only records a pending target; the handler body keeps
   running and a later [transit] overwrites it.  Within one top-level
   statement list, an earlier transit is dead when a later statement
   transits unconditionally, or under a syntactically identical guard. *)
let check_dead_transits ~diag mname (ss : Ast.stmt list) =
  let top_transit (s : Ast.stmt) =
    match s.Ast.sk with Ast.Transit _ -> Some s.Ast.sloc | _ -> None
  in
  let guarded_transit (s : Ast.stmt) =
    (* an if whose branches transit, keyed by its guard *)
    match s.Ast.sk with
    | Ast.If (c, t, f) when has_transit t || has_transit f -> Some c
    | _ -> None
  in
  let arr = Array.of_list ss in
  let n = Array.length arr in
  for i = 0 to n - 1 do
    let shadowed_by j =
      top_transit arr.(j) <> None
      ||
      match (guarded_transit arr.(i), guarded_transit arr.(j)) with
      | Some ci, Some cj -> ci = cj
      | _ -> false
    in
    let rec exists_later j = j < n && (shadowed_by j || exists_later (j + 1)) in
    match top_transit arr.(i) with
    | Some pos when exists_later (i + 1) ->
        diag
          (Diagnostic.warningf ~pos ~code:"L102"
             "machine %s: transition never takes effect: a later transit \
              in the same handler always overwrites it"
             mname)
    | _ -> (
        match guarded_transit arr.(i) with
        | Some _ when exists_later (i + 1) ->
            diag
              (Diagnostic.warningf ~pos:arr.(i).Ast.sloc ~code:"L102"
                 "machine %s: transition is shadowed: a later transit \
                  under the same guard (or unconditional) overwrites it"
                 mname)
        | _ -> ())
  done

(* ------------------------------------------------------------------ *)
(* L105 util linearity                                                 *)
(* ------------------------------------------------------------------ *)

(* Syntactic degree in the resource parameter [p]: mirrors what
   Analysis.to_linear accepts, so non-linear utils are flagged here with
   the span of the offending statement instead of failing at deploy. *)
let check_util_linear ~diag mname (u : Ast.util_decl) =
  let p = u.uparam in
  let rec deg (e : Ast.expr) =
    match e with
    | Ast.Var v when v = p -> 1
    | Ast.Field (Ast.Var v, _) when v = p -> 1
    | Ast.Bool _ | Ast.Int _ | Ast.Float _ | Ast.String _ | Ast.AnyLit
    | Ast.Var _ | Ast.Field _ ->
        0
    | Ast.Call (("min" | "max"), args) ->
        List.fold_left (fun acc a -> max acc (deg a)) 0 args
    | Ast.Call (_, args) ->
        List.fold_left (fun acc a -> max acc (deg a)) 0 args
    | Ast.Unop (_, a) -> deg a
    | Ast.Binop ((Ast.Add | Ast.Sub), a, b) -> max (deg a) (deg b)
    | Ast.Binop (Ast.Mul, a, b) -> deg a + deg b
    | Ast.Binop (Ast.Div, a, b) -> deg a + if deg b > 0 then 2 else 0
    | Ast.Binop (_, a, b) -> max (deg a) (deg b)
    | Ast.FilterAtom (_, a) -> deg a
    | Ast.StructLit (_, fields) ->
        List.fold_left (fun acc (_, e) -> max acc (deg e)) 0 fields
    | Ast.ListLit es -> List.fold_left (fun acc e -> max acc (deg e)) 0 es
  in
  let check_expr pos what e =
    if deg e > 1 then
      diag
        (Diagnostic.errorf ~pos ~code:"L105"
           "machine %s: util %s is not linear in %s — the placement \
            analysis will reject it (§III-A f)"
           mname what p)
  in
  let rec walk (ss : Ast.stmt list) =
    List.iter
      (fun (s : Ast.stmt) ->
        match s.Ast.sk with
        | Ast.If (c, t, f) ->
            check_expr s.Ast.sloc "condition" c;
            walk t;
            walk f
        | Ast.Return (Some e) -> check_expr s.Ast.sloc "return value" e
        | _ -> ())
      ss
  in
  walk u.ubody

(* ------------------------------------------------------------------ *)
(* L107 enter-transit livelock                                         *)
(* ------------------------------------------------------------------ *)

(* Effective unconditional enter-transition of a state: the last
   top-level unconditional [transit] across its enter handlers (state
   handlers override machine-level ones for the same trigger). *)
let enter_transit (m : Ast.machine) (s : Ast.state_decl) =
  let events = Semantics.events_for m s Semantics.Enter in
  let last_unconditional acc (ev : Ast.event) =
    List.fold_left
      (fun acc (st : Ast.stmt) ->
        match st.Ast.sk with
        | Ast.Transit e -> (
            match Semantics.transit_target e with
            | Some t -> Some (t, st.Ast.sloc)
            | None -> acc)
        | _ -> acc)
      acc ev.body
  in
  List.fold_left last_unconditional None events

let check_livelock ~diag (m : Ast.machine) =
  let edge s = Option.map fst (enter_transit m s) in
  let state name =
    List.find_opt (fun (s : Ast.state_decl) -> s.sname = name) m.states
  in
  (* a state livelocks if following unconditional enter-transits from it
     revisits a state — the switch CPU never yields back to the soil *)
  List.iter
    (fun (s : Ast.state_decl) ->
      let rec follow seen name =
        if List.mem name seen then Some name
        else
          match Option.bind (state name) edge with
          | Some next -> follow (name :: seen) next
          | None -> None
      in
      match edge s with
      | Some next when follow [ s.sname ] next <> None ->
          let pos =
            match enter_transit m s with
            | Some (_, pos) -> pos
            | None -> s.stloc
          in
          diag
            (Diagnostic.errorf ~pos ~code:"L107"
               "machine %s: state %s enters a transit cycle with no \
                timer/poll trigger — the seed would livelock on the \
                switch CPU"
               m.mname s.sname)
      | _ -> ())
    m.states

(* ------------------------------------------------------------------ *)
(* Reachability-backed verdicts (L101/L102/L107 via Reach)             *)
(* ------------------------------------------------------------------ *)

(* A Reach result is only trusted for machine [m] when it analyzed [m]
   and ran to completion; otherwise the syntactic heuristics apply. *)
let reach_for (m : Ast.machine) = function
  | Some (r : Reach.result) when r.Reach.machine = m.mname && r.Reach.complete
    ->
      Some r
  | _ -> None

let reach_unreachable ~diag (r : Reach.result) (m : Ast.machine) =
  match m.states with
  | [] -> ()
  | initial :: _ ->
      List.iter
        (fun (s : Ast.state_decl) ->
          if not (List.mem s.sname r.Reach.reachable) then
            diag
              (Diagnostic.warningf ~pos:s.stloc ~code:"L101"
                 "machine %s: state %s is unreachable from the initial \
                  state %s (no feasible transit path reaches it)"
                 m.mname s.sname initial.sname))
        m.states

(* A transit site is dead when no feasible execution lets it decide the
   next state — unreachable code, an infeasible guard, or a later
   transit that always overwrites its pending target.  Sites inside
   unreachable states are skipped: their L101 already covers them. *)
let reach_dead_transits ~diag (r : Reach.result) (m : Ast.machine) =
  let effective = List.map fst r.Reach.effective_transits in
  let check ss =
    List.iter
      (fun pos ->
        if not (List.mem pos effective) then
          diag
            (Diagnostic.warningf ~pos ~code:"L102"
               "machine %s: transition never takes effect on any feasible \
                execution (its pending target is unreachable, infeasible \
                or always overwritten)"
               m.mname))
      (List.rev_map fst (Semantics.body_transits ss))
  in
  List.iter (fun (ev : Ast.event) -> check ev.Ast.body) m.mevents;
  List.iter
    (fun (s : Ast.state_decl) ->
      if List.mem s.sname r.Reach.reachable then
        List.iter (fun (ev : Ast.event) -> check ev.Ast.body) s.sevents)
    m.states

let reach_livelock ~diag (r : Reach.result) (m : Ast.machine) =
  match r.Reach.livelock with
  | None -> ()
  | Some cycle ->
      let head = match cycle with n :: _ -> n | [] -> "" in
      let pos =
        match
          List.find_opt (fun (s : Ast.state_decl) -> s.sname = head) m.states
        with
        | Some s -> (
            match enter_transit m s with
            | Some (_, pos) -> pos
            | None -> s.stloc)
        | None -> Ast.no_pos
      in
      diag
        (Diagnostic.errorf ~pos ~code:"L107"
           "machine %s: guaranteed enter-transit cycle %s — the seed \
            would livelock on the switch CPU"
           m.mname
           (String.concat " -> " cycle))

(* ------------------------------------------------------------------ *)
(* Per-machine driver                                                  *)
(* ------------------------------------------------------------------ *)

let check_machine ?file ?(bound_externals = []) ?reach (m : Ast.machine) =
  let out = ref [] in
  let diag d = out := d :: !out in
  let reach = reach_for m reach in
  (match reach with
  | Some r -> reach_unreachable ~diag r m
  | None -> check_reachability ~diag m);
  (* L102 over every handler body (top level only) *)
  let every_body f =
    List.iter (fun (ev : Ast.event) -> f ev.Ast.body) m.mevents;
    List.iter
      (fun (s : Ast.state_decl) ->
        List.iter (fun (ev : Ast.event) -> f ev.Ast.body) s.sevents)
      m.states
  in
  (match reach with
  | Some r -> reach_dead_transits ~diag r m
  | None -> every_body (check_dead_transits ~diag m.mname));
  (* L103 / L104: unused variables and trigger subscriptions *)
  let used = machine_uses m in
  List.iter
    (fun (v : Ast.var_decl) ->
      if not (StringSet.mem v.vname used) then
        diag
          (Diagnostic.warningf ~pos:v.vloc ~code:"L103"
             "machine %s: variable %s is never used" m.mname v.vname))
    m.mvars;
  List.iter
    (fun (s : Ast.state_decl) ->
      let used = state_uses StringSet.empty s in
      List.iter
        (fun (v : Ast.var_decl) ->
          if not (StringSet.mem v.vname used) then
            diag
              (Diagnostic.warningf ~pos:v.vloc ~code:"L103"
                 "machine %s: state %s: variable %s is never used" m.mname
                 s.sname v.vname))
        s.slocals)
    m.states;
  List.iter
    (fun (t : Ast.trig_decl) ->
      if not (StringSet.mem t.tname used) then
        diag
          (Diagnostic.warningf ~pos:t.tloc ~code:"L104"
             "machine %s: %s variable %s has no handler — its \
              subscription still polls and burns switch CPU"
             m.mname
             (Ast.trigger_type_to_string t.ttyp)
             t.tname))
    m.mtrigs;
  (* L105 *)
  List.iter
    (fun (s : Ast.state_decl) ->
      match s.sutil with
      | Some u -> check_util_linear ~diag m.mname u
      | None -> ())
    m.states;
  (* L106 *)
  List.iter
    (fun (v : Ast.var_decl) ->
      if v.is_external && v.vinit = None
         && not (List.mem v.vname bound_externals)
      then
        diag
          (Diagnostic.errorf ~pos:v.vloc ~code:"L106"
             "machine %s: external variable %s has neither an initializer \
              nor a deployment binding"
             m.mname v.vname))
    m.mvars;
  (match reach with
  | Some r -> reach_livelock ~diag r m
  | None -> check_livelock ~diag m);
  let ds = Diagnostic.sort (List.rev !out) in
  match file with Some f -> Diagnostic.with_file f ds | None -> ds

let check_program ?file ?(externals = []) ?(reach = []) (p : Ast.program) =
  Diagnostic.sort
    (List.concat_map
       (fun (m : Ast.machine) ->
         let bound_externals =
           match List.assoc_opt m.mname externals with
           | Some l -> l
           | None -> []
         in
         let reach =
           List.find_opt (fun (r : Reach.result) -> r.Reach.machine = m.mname)
             reach
         in
         check_machine ?file ~bound_externals ?reach m)
       p.machines)
