(* Cross-task conflict detection (see conflict.mli). *)

module Ast = Farm_almanac.Ast
module Analysis = Farm_almanac.Analysis
module Diagnostic = Farm_almanac.Diagnostic
module Filter = Farm_net.Filter
module Ipaddr = Farm_net.Ipaddr

type rule_site = {
  r_pattern : Filter.t option;
  r_affecting : bool;
  r_machine : string;
  r_pos : Ast.pos;
}

type profile = {
  p_task : string;
  p_switches : int list;
  p_rules : rule_site list;
  p_monitors : (string * Filter.t) list;
}

(* ------------------------------------------------------------------ *)
(* Filter overlap                                                      *)

type lit = Pos of Filter.atom | Neg of Filter.atom

(* DNF expansion with a size cap; [None] = blew up, caller must assume
   overlap. *)
let max_conjunctions = 64

let cap l = if List.length l > max_conjunctions then None else Some l

let product a b =
  cap (List.concat_map (fun ca -> List.map (fun cb -> ca @ cb) b) a)

let rec dnf (f : Filter.t) : lit list list option =
  match f with
  | Filter.True -> Some [ [] ]
  | Filter.False -> Some []
  | Filter.Atom a -> Some [ [ Pos a ] ]
  | Filter.Not g -> dnf_neg g
  | Filter.And (a, b) -> (
      match (dnf a, dnf b) with
      | Some da, Some db -> product da db
      | _ -> None)
  | Filter.Or (a, b) -> (
      match (dnf a, dnf b) with
      | Some da, Some db -> cap (da @ db)
      | _ -> None)

and dnf_neg (f : Filter.t) : lit list list option =
  match f with
  | Filter.True -> Some []
  | Filter.False -> Some [ [] ]
  | Filter.Atom a -> Some [ [ Neg a ] ]
  | Filter.Not g -> dnf g
  | Filter.And (a, b) -> (
      (* ¬(a∧b) = ¬a ∨ ¬b *)
      match (dnf_neg a, dnf_neg b) with
      | Some da, Some db -> cap (da @ db)
      | _ -> None)
  | Filter.Or (a, b) -> (
      (* ¬(a∨b) = ¬a ∧ ¬b *)
      match (dnf_neg a, dnf_neg b) with
      | Some da, Some db -> product da db
      | _ -> None)

(* Provably no packet matches both atoms.  [Port n] (source or dest)
   never contradicts another port atom with a different value: a packet
   can carry both ports. *)
let atom_disjoint (a : Filter.atom) (b : Filter.atom) =
  match (a, b) with
  | Filter.Src_ip p, Filter.Src_ip q | Filter.Dst_ip p, Filter.Dst_ip q ->
      (not (Ipaddr.Prefix.subset p q)) && not (Ipaddr.Prefix.subset q p)
  | Filter.Src_port m, Filter.Src_port n
  | Filter.Dst_port m, Filter.Dst_port n ->
      m <> n
  | Filter.Proto p, Filter.Proto q -> p <> q
  | _ -> false

(* [a] implies [b]: every packet matching [a] matches [b]. *)
let atom_implies (a : Filter.atom) (b : Filter.atom) =
  match (a, b) with
  | _, Filter.Any -> true
  | Filter.Src_ip p, Filter.Src_ip q | Filter.Dst_ip p, Filter.Dst_ip q ->
      Ipaddr.Prefix.subset p q
  | Filter.Src_port m, Filter.Src_port n
  | Filter.Dst_port m, Filter.Dst_port n
  | Filter.Port m, Filter.Port n ->
      m = n
  | Filter.Src_port m, Filter.Port n | Filter.Dst_port m, Filter.Port n ->
      m = n
  | Filter.Proto p, Filter.Proto q -> p = q
  | _ -> false

(* Is a combined conjunction possibly satisfiable? *)
let conj_satisfiable (c : lit list) =
  let pos = List.filter_map (function Pos a -> Some a | Neg _ -> None) c in
  let neg = List.filter_map (function Neg a -> Some a | Pos _ -> None) c in
  (not (List.mem Filter.Any neg))
  && (not
        (List.exists
           (fun a -> List.exists (fun b -> atom_disjoint a b) pos)
           pos))
  && not (List.exists (fun a -> List.exists (fun b -> atom_implies a b) neg) pos)

let overlap f g =
  match (dnf f, dnf g) with
  | Some df, Some dg ->
      List.exists
        (fun ca -> List.exists (fun cb -> conj_satisfiable (ca @ cb)) dg)
        df
  | _ -> true

(* ------------------------------------------------------------------ *)
(* Harvesting                                                          *)

(* Does an action expression affect matching traffic?  Unknown actions
   (external variables, auxiliary calls) are conservatively affecting. *)
let action_affecting (e : Ast.expr) =
  match e with
  | Ast.Call (("qos_action" | "count_action"), _) -> false
  | _ -> true

let rec expr_rule_sites ~bindings ~machine ~pos acc (e : Ast.expr) =
  let recurse acc e = expr_rule_sites ~bindings ~machine ~pos acc e in
  match e with
  | Ast.Call ("addTCAMRule", args) ->
      let acc = List.fold_left recurse acc args in
      let site =
        match args with
        | [ Ast.Call ("mkRule", [ f; act ]) ] ->
            let pattern =
              match Analysis.eval_filter ~bindings f with
              | Ok fl -> Some fl
              | Error _ -> None
            in
            { r_pattern = pattern; r_affecting = action_affecting act;
              r_machine = machine; r_pos = pos }
        | _ ->
            { r_pattern = None; r_affecting = true; r_machine = machine;
              r_pos = pos }
      in
      site :: acc
  | Ast.Call (_, args) -> List.fold_left recurse acc args
  | Ast.Field (e, _) | Ast.Unop (_, e) | Ast.FilterAtom (_, e) -> recurse acc e
  | Ast.Binop (_, a, b) -> recurse (recurse acc a) b
  | Ast.ListLit es -> List.fold_left recurse acc es
  | Ast.StructLit (_, fs) ->
      List.fold_left (fun acc (_, e) -> recurse acc e) acc fs
  | Ast.Bool _ | Ast.Int _ | Ast.Float _ | Ast.String _ | Ast.AnyLit
  | Ast.Var _ ->
      acc

let rec stmt_rule_sites ~bindings ~machine acc (s : Ast.stmt) =
  let on_expr acc e =
    expr_rule_sites ~bindings ~machine ~pos:s.Ast.sloc acc e
  in
  let on_body acc b =
    List.fold_left (stmt_rule_sites ~bindings ~machine) acc b
  in
  match s.Ast.sk with
  | Ast.Decl (_, _, None) | Ast.Return None -> acc
  | Ast.Decl (_, _, Some e)
  | Ast.Assign (_, e)
  | Ast.Transit e
  | Ast.Return (Some e)
  | Ast.Send (e, _)
  | Ast.ExprStmt e ->
      on_expr acc e
  | Ast.If (c, t, f) -> on_body (on_body (on_expr acc c) t) f
  | Ast.While (c, b) -> on_body (on_expr acc c) b

let rule_sites ?(bindings = Analysis.no_bindings) (m : Ast.machine) =
  let on_event acc (ev : Ast.event) =
    List.fold_left
      (stmt_rule_sites ~bindings ~machine:m.Ast.mname)
      acc ev.Ast.body
  in
  let acc =
    List.fold_left
      (fun acc (st : Ast.state_decl) ->
        List.fold_left on_event acc st.Ast.sevents)
      [] m.Ast.states
  in
  List.rev (List.fold_left on_event acc m.Ast.mevents)

let profile ~task (summaries : (Analysis.summary * Analysis.bindings) list) =
  let switches =
    List.concat_map
      (fun ((s : Analysis.summary), _) ->
        List.concat_map
          (fun (site : Analysis.seed_site) -> site.Analysis.candidates)
          s.Analysis.seeds)
      summaries
    |> List.sort_uniq Int.compare
  in
  let rules =
    List.concat_map
      (fun ((s : Analysis.summary), bindings) ->
        rule_sites ~bindings s.Analysis.machine)
      summaries
  in
  let monitors =
    (* time triggers observe no traffic — only polls and probes can be
       blinded by another task's rules *)
    List.concat_map
      (fun ((s : Analysis.summary), _) ->
        List.filter_map
          (fun (p : Analysis.poll_summary) ->
            if p.Analysis.ptrig = Ast.Time then None
            else
              Some
                ( s.Analysis.machine.Ast.mname ^ "." ^ p.Analysis.poll_name,
                  p.Analysis.what ))
          s.Analysis.poll_vars)
      summaries
  in
  { p_task = task; p_switches = switches; p_rules = rules;
    p_monitors = monitors }

(* ------------------------------------------------------------------ *)
(* Pairwise checks                                                     *)

let rec intersects a b =
  (* both sorted *)
  match (a, b) with
  | [], _ | _, [] -> false
  | x :: a', y :: b' ->
      if x = y then true
      else if x < y then intersects a' b
      else intersects a b'

let patterns_overlap (pa : Filter.t option) (pb : Filter.t option) =
  match (pa, pb) with
  | Some a, Some b -> overlap a b
  | _ -> true (* runtime-computed pattern: assume the worst *)

let pattern_str = function
  | Some f -> Filter.to_string f
  | None -> "<runtime pattern>"

let c301 a b =
  let aff p = List.filter (fun r -> r.r_affecting) p.p_rules in
  let pair =
    List.find_map
      (fun ra ->
        List.find_map
          (fun rb ->
            if patterns_overlap ra.r_pattern rb.r_pattern then
              Some (ra, rb)
            else None)
          (aff b))
      (aff a)
  in
  match pair with
  | None -> []
  | Some (ra, rb) ->
      [ Diagnostic.warningf ~pos:ra.r_pos ~code:"C301"
          "tasks %s and %s share candidate switches and may install \
           conflicting TCAM rules: %s (machine %s) overlaps %s (machine %s)"
          a.p_task b.p_task (pattern_str ra.r_pattern) ra.r_machine
          (pattern_str rb.r_pattern) rb.r_machine ]

(* monitors of [a] vs affecting rules of [b] *)
let c302 a b =
  let hit =
    List.find_map
      (fun (mon, f) ->
        List.find_map
          (fun r ->
            if r.r_affecting && patterns_overlap (Some f) r.r_pattern then
              Some (mon, f, r)
            else None)
          b.p_rules)
      a.p_monitors
  in
  match hit with
  | None -> []
  | Some (mon, f, r) ->
      [ Diagnostic.warningf ~pos:r.r_pos ~code:"C302"
          "task %s polls %s (%s) but task %s may drop or rate-limit \
           matching traffic with rule %s (machine %s) on a shared switch"
          a.p_task mon (Filter.to_string f) b.p_task
          (pattern_str r.r_pattern) r.r_machine ]

let check_pair a b =
  if not (intersects a.p_switches b.p_switches) then []
  else c301 a b @ c302 a b @ c302 b a

let check_against p deployed =
  List.concat_map
    (fun q -> if q.p_task = p.p_task then [] else check_pair p q)
    deployed

let check profiles =
  let rec go = function
    | [] -> []
    | p :: rest -> List.concat_map (check_pair p) rest @ go rest
  in
  go profiles
