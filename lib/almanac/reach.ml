(* Inter-handler state-machine reachability.

   A fixpoint over (state, abstract store) items: machine and state-local
   variables are tracked in a small abstract domain (boolean / numeric
   interval / top), every handler of a visited state is symbolically
   executed through {!Symexec} (interpreter semantics), infeasible paths
   are pruned against the abstract store refined by each path condition,
   and transits flow the abstract post-store through exit events, the
   target's transit-mode local initializers and its enter events.
   Interval widening after a few joins per state guarantees termination
   on counter loops.

   Products:
   - the set of semantically reachable states and the set of *effective*
     transit sites (a transit that decides the next state on at least
     one feasible path) — consumed by {!Lint} to upgrade the heuristic
     L101/L102/L107 verdicts to reachability-backed ones;
   - [V403] errors: a user [assert(..)] admits a feasible violating
     path, reported with a concrete witness;
   - [V404] warnings: a TCAM/stat/list index that may fall out of range.

   When any handler exhausts its exploration budget the result is marked
   incomplete and every precise claim is withheld (the handler's
   syntactic transits are assumed effective, its post-store is top). *)

open Symexec

(* ------------------------------------------------------------------ *)
(* Abstract values                                                     *)
(* ------------------------------------------------------------------ *)

type aval =
  | Abool of bool option  (* None = either *)
  | Anum of float * float  (* closed interval, infinities allowed *)
  | Atop

let anum l h = Anum (l, h)

let ajoin a b =
  match (a, b) with
  | Atop, _ | _, Atop -> Atop
  | Abool x, Abool y -> if x = y then a else Abool None
  | Anum (l1, h1), Anum (l2, h2) -> Anum (min l1 l2, max h1 h2)
  | Abool _, Anum _ | Anum _, Abool _ -> Atop

let awiden old nw =
  match (old, nw) with
  | Anum (l1, h1), Anum (l2, h2) ->
      Anum
        ( (if l2 < l1 then neg_infinity else l1),
          if h2 > h1 then infinity else h1 )
  | _ -> ajoin old nw

let aval_equal a b = compare a b = 0

let aval_to_string = function
  | Abool (Some b) -> string_of_bool b
  | Abool None -> "bool"
  | Anum (l, h) when l = h -> Printf.sprintf "%g" l
  | Anum (l, h) -> Printf.sprintf "[%g, %g]" l h
  | Atop -> "?"

(* truthiness of an abstract value, three-valued *)
let atruthy = function
  | Abool b -> b
  | Anum (l, h) ->
      if l > 0. || h < 0. then Some true
      else if l = 0. && h = 0. then Some false
      else None
  | Atop -> None

(* ------------------------------------------------------------------ *)
(* Abstract evaluation of symbolic terms                               *)
(* ------------------------------------------------------------------ *)

let aval_of_value : Value.t -> aval = function
  | Value.Num n -> Anum (n, n)
  | Value.Bool b -> Abool (Some b)
  | _ -> Atop

let interval f (l1, h1) (l2, h2) =
  let c = [ f l1 l2; f l1 h2; f h1 l2; f h1 h2 ] in
  Anum (List.fold_left min infinity c, List.fold_left max neg_infinity c)

let acmp op (l1, h1) (l2, h2) =
  let decide t f = if t then Some true else if f then Some false else None in
  Abool
    (match (op : Ast.binop) with
    | Ast.Lt -> decide (h1 < l2) (l1 >= h2)
    | Ast.Le -> decide (h1 <= l2) (l1 > h2)
    | Ast.Gt -> decide (l1 > h2) (h1 <= l2)
    | Ast.Ge -> decide (l1 >= h2) (h1 < l2)
    | Ast.Eq -> decide (l1 = h1 && l2 = h2 && l1 = l2) (h1 < l2 || l1 > h2)
    | Ast.Neq -> decide (h1 < l2 || l1 > h2) (l1 = h1 && l2 = h2 && l1 = l2)
    | _ -> None)

let rec aeval (env : string -> aval) (s : sym) : aval =
  match s with
  | Con v -> aval_of_value v
  | Svar (n, _) -> env n
  | Sunop (Ast.Neg, a) -> (
      match aeval env a with
      | Anum (l, h) -> Anum (-.h, -.l)
      | _ -> Atop)
  | Sunop (Ast.Not, a) -> (
      match atruthy (aeval env a) with
      | Some b -> Abool (Some (not b))
      | None -> Abool None)
  | Sbinop (op, a, b) -> (
      let va = aeval env a and vb = aeval env b in
      match (op, va, vb) with
      | Ast.Add, Anum (l1, h1), Anum (l2, h2) -> Anum (l1 +. l2, h1 +. h2)
      | Ast.Sub, Anum (l1, h1), Anum (l2, h2) -> Anum (l1 -. h2, h1 -. l2)
      | Ast.Mul, Anum (l1, h1), Anum (l2, h2) ->
          interval ( *. ) (l1, h1) (l2, h2)
      | Ast.Div, Anum (l1, h1), Anum (l2, h2) when l2 > 0. || h2 < 0. ->
          interval ( /. ) (l1, h1) (l2, h2)
      | ( (Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Neq),
          Anum (l1, h1),
          Anum (l2, h2) ) ->
          acmp op (l1, h1) (l2, h2)
      | Ast.And, _, _ -> (
          match (atruthy va, atruthy vb) with
          | Some false, _ | _, Some false -> Abool (Some false)
          | Some true, Some true -> Abool (Some true)
          | _ -> Abool None)
      | Ast.Or, _, _ -> (
          match (atruthy va, atruthy vb) with
          | Some true, _ | _, Some true -> Abool (Some true)
          | Some false, Some false -> Abool (Some false)
          | _ -> Abool None)
      | _ -> Atop)
  | Sapp (f, _) -> (
      match Builtins.find f with
      | Some { at_least = Some lo; _ } -> anum lo infinity
      | _ -> Atop)
  | Sfield _ | Sopaque _ | Slist _ | Sstats _ | Sstruct _ -> Atop

(* ------------------------------------------------------------------ *)
(* Path-condition refinement                                           *)
(* ------------------------------------------------------------------ *)

module SMap = Map.Make (String)

type env_map = aval SMap.t

let env_of map n = match SMap.find_opt n map with Some v -> v | None -> Atop

(* Meet a variable's interval with a comparison bound (closed-interval
   approximation of strict bounds — sound). *)
let refine_var map n op c =
  let cur = match env_of map n with Anum (l, h) -> (l, h) | _ -> (neg_infinity, infinity) in
  let l, h = cur in
  let l', h' =
    match (op : Ast.binop) with
    | Ast.Lt | Ast.Le -> (l, min h c)
    | Ast.Gt | Ast.Ge -> (max l c, h)
    | Ast.Eq -> (max l c, min h c)
    | _ -> (l, h)
  in
  SMap.add n (Anum (l', h')) map

let flip_cmp = function
  | Ast.Lt -> Ast.Gt
  | Ast.Gt -> Ast.Lt
  | Ast.Le -> Ast.Ge
  | Ast.Ge -> Ast.Le
  | op -> op

let negate_cmp = function
  | Ast.Lt -> Ast.Ge
  | Ast.Ge -> Ast.Lt
  | Ast.Gt -> Ast.Le
  | Ast.Le -> Ast.Gt
  | Ast.Eq -> Ast.Neq
  | Ast.Neq -> Ast.Eq
  | op -> op

(* Refine an environment by one path-condition atom. *)
let refine_atom map (t, b) =
  match t with
  | Sbinop (((Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq) as op), Svar (n, _), Con (Value.Num c))
    ->
      let op = if b then op else negate_cmp op in
      if op = Ast.Neq then map else refine_var map n op c
  | Sbinop (((Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq) as op), Con (Value.Num c), Svar (n, _))
    ->
      let op = flip_cmp op in
      let op = if b then op else negate_cmp op in
      if op = Ast.Neq then map else refine_var map n op c
  | Svar (n, _) when not b -> (
      (* [not x] over a numeric variable pins it to zero *)
      match env_of map n with
      | Anum _ -> refine_var map n Ast.Eq 0.
      | Abool _ | Atop -> SMap.add n (Abool (Some false)) map)
  | Svar (n, _) when b -> (
      match env_of map n with
      | Abool _ -> SMap.add n (Abool (Some true)) map
      | _ -> map)
  | _ -> map

let refine_env map pc = List.fold_left refine_atom map pc

(* Bounds a path condition imposes directly on the term [t] — keyed on
   the term itself (structural equality), so guards over non-variable
   terms like an [index_of(..)] result refine it too. *)
let pc_bounds pc t =
  let meet (l, h) op c =
    match (op : Ast.binop) with
    | Ast.Lt | Ast.Le -> (l, min h c)
    | Ast.Gt | Ast.Ge -> (max l c, h)
    | Ast.Eq -> (max l c, min h c)
    | _ -> (l, h)
  in
  List.fold_left
    (fun acc (atom, b) ->
      match atom with
      | Sbinop
          ( ((Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq) as op),
            x,
            Con (Value.Num c) )
        when sym_equal x t ->
          let op = if b then op else negate_cmp op in
          if op = Ast.Neq then acc else meet acc op c
      | Sbinop
          ( ((Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq) as op),
            Con (Value.Num c),
            x )
        when sym_equal x t ->
          let op = if b then flip_cmp op else negate_cmp (flip_cmp op) in
          if op = Ast.Neq then acc else meet acc op c
      | _ -> acc)
    (neg_infinity, infinity) pc

let env_empty (map : env_map) =
  SMap.exists (fun _ v -> match v with Anum (l, h) -> l > h | _ -> false) map

(* Is a path feasible under an abstract environment?  Refine first, then
   re-check every atom under the refined environment. *)
let path_feasible (map : env_map) (p : path) : env_map option =
  let refined = refine_env map p.pc in
  if env_empty refined then None
  else if
    List.exists
      (fun (t, b) ->
        match atruthy (aeval (env_of refined) t) with
        | Some v -> v <> b
        | None -> false)
      p.pc
  then None
  else Some refined

(* ------------------------------------------------------------------ *)
(* Abstract stores                                                     *)
(* ------------------------------------------------------------------ *)

(* Global and state-local variables are tracked under prefixed keys so a
   local may shadow a global of the same name. *)
let gkey n = "g:" ^ n
let lkey n = "l:" ^ n

let unkey k =
  match String.index_opt k ':' with
  | Some i -> String.sub k (i + 1) (String.length k - i - 1)
  | None -> k

type astore = env_map  (* gkey/lkey -> aval *)

let astore_join (a : astore) (b : astore) : astore =
  SMap.merge
    (fun _ x y ->
      match (x, y) with
      | Some x, Some y -> Some (ajoin x y)
      | _ -> Some Atop)
    a b

let astore_widen (old : astore) (nw : astore) : astore =
  SMap.merge
    (fun _ x y ->
      match (x, y) with
      | Some x, Some y -> Some (awiden x y)
      | _ -> Some Atop)
    old nw

let astore_equal a b = SMap.equal aval_equal a b
let astore_top (a : astore) : astore = SMap.map (fun _ -> Atop) a

(* ------------------------------------------------------------------ *)
(* Analysis result                                                     *)
(* ------------------------------------------------------------------ *)

type result = {
  machine : string;
  reachable : string list;  (** states semantically reachable *)
  effective_transits : (Ast.pos * string) list;
      (** transit sites that decide the next state on a feasible path *)
  livelock : string list option;
      (** a guaranteed enter-transit cycle, if one exists *)
  diags : Diagnostic.t list;  (** V403 invariant violations, V404 ranges *)
  complete : bool;
      (** false when a budget was exhausted; precise claims are withheld *)
}

(* ------------------------------------------------------------------ *)
(* Syntactic helpers                                                   *)
(* ------------------------------------------------------------------ *)

(* Every dispatch a state can run besides enter/exit, labelled, in
   event order: the events of each trigger key, and each recv arm that
   is not shadowed (a message runs one arm only). *)
let steady_dispatches (m : Ast.machine) (st : Ast.state_decl) =
  let live = Semantics.live_recv_arms m st in
  let dispatch (e : Ast.event) =
    match (Semantics.trigger_key e.trigger, e.trigger) with
    | Some (Semantics.Enter | Semantics.Exit), _ -> None
    | Some k, _ -> Some ("on " ^ Semantics.key_name k, Semantics.events_for m st k)
    | None, Ast.On_recv (ty, _, d) when List.exists (fun (_, _, a) -> a == e) live ->
        Some
          ( Printf.sprintf "on recv %s from %s" (Ast.typ_to_string ty)
              (Semantics.source_name d),
            [ e ] )
    | None, _ -> None
  in
  List.fold_left
    (fun acc e ->
      match dispatch e with
      | Some (what, _) when List.mem_assoc what acc -> acc
      | Some d -> d :: acc
      | None -> acc)
    [] (st.sevents @ m.mevents)
  |> List.rev

(* ------------------------------------------------------------------ *)
(* The fixpoint                                                        *)
(* ------------------------------------------------------------------ *)

let widen_after = 3
let max_items = 2000

type acc = {
  ac_m : Ast.machine;
  ac_ctx : unit -> ctx;
  ac_states : (string * Ast.state_decl) list;
  (* per-state joined abstract stores *)
  enter_in : (string, astore * int) Hashtbl.t;  (* store, join count *)
  steady_in : (string, astore * int) Hashtbl.t;
  mutable worklist : [ `Enter of string | `Steady of string ] list;
  reached : (string, unit) Hashtbl.t;
  effective : (Ast.pos * string, unit) Hashtbl.t;
  (* enter-forwarding observations: state -> (all paths transit so far,
     observed targets) *)
  forwarding : (string, bool * (string, unit) Hashtbl.t) Hashtbl.t;
  v403 : (Ast.pos, Diagnostic.t) Hashtbl.t;
  v404 : (Ast.pos * string, Diagnostic.t) Hashtbl.t;
  mutable complete : bool;
  mutable steps : int;
}

let state_of acc name = List.assoc_opt name acc.ac_states

(* Symbolic input stores for a state: every global and local becomes a
   free variable carrying its prefixed name. *)
let sym_inputs (m : Ast.machine) (st : Ast.state_decl) =
  let globals =
    List.map (fun (v : Ast.var_decl) -> (v.vname, Svar (gkey v.vname, Some v.vtyp)))
      m.mvars
    @ List.map (fun (t : Ast.trig_decl) -> (t.tname, Svar (gkey t.tname, None)))
        m.mtrigs
  in
  let locals =
    List.map (fun (v : Ast.var_decl) -> (v.vname, Svar (lkey v.vname, Some v.vtyp)))
      st.slocals
  in
  (globals, locals)

(* Abstract post-store of one feasible path: every tracked variable is
   re-evaluated under the refined environment. *)
let path_post acc (st : Ast.state_decl) (refined : env_map) (p : path) :
    astore =
  let m = acc.ac_m in
  let entry key peek n =
    let v =
      match peek p.store n with
      | Some s -> aeval (env_of refined) s
      | None -> Atop
    in
    (key n, v)
  in
  SMap.of_seq
    (List.to_seq
       (List.map (fun (v : Ast.var_decl) -> entry gkey peek_global v.vname) m.mvars
       @ List.map (fun (t : Ast.trig_decl) -> entry gkey peek_global t.tname)
           m.mtrigs
       @ List.map (fun (v : Ast.var_decl) -> entry lkey peek_local v.vname)
           st.slocals))

(* Restrict a store to globals only (locals die on transit). *)
let globals_only (a : astore) : astore =
  SMap.filter (fun k _ -> String.length k >= 2 && k.[0] = 'g') a

(* A human-readable witness from a refined environment: one sample value
   per constrained variable. *)
let witness (refined : env_map) (pc : (sym * bool) list) : string =
  let vars =
    List.sort_uniq compare
      (List.concat_map
         (fun (t, _) ->
           let rec vars_of = function
             | Svar (n, _) -> [ n ]
             | Sbinop (_, a, b) -> vars_of a @ vars_of b
             | Sunop (_, a) -> vars_of a
             | Sapp (_, args) -> List.concat_map vars_of args
             | Sfield (b, _) -> vars_of b
             | _ -> []
           in
           vars_of t)
         pc)
  in
  let sample n =
    match env_of refined n with
    | Anum (l, h) ->
        let v = if Float.is_finite l then l else if Float.is_finite h then h else 0. in
        Some (Printf.sprintf "%s = %g" (unkey n) v)
    | Abool (Some b) -> Some (Printf.sprintf "%s = %b" (unkey n) b)
    | _ -> None
  in
  match List.filter_map sample vars with
  | [] -> "any input"
  | xs -> String.concat ", " xs

let record_v403 acc ~(st : Ast.state_decl) ~what refined (p : path) pos =
  if not (Hashtbl.mem acc.v403 pos) then
    Hashtbl.replace acc.v403 pos
      (Diagnostic.errorf ~pos ~code:"V403"
         "invariant can fail in state %s (%s): witness path [%s] with %s"
         st.sname what (pc_to_string p.pc) (witness refined p.pc))

let record_v404 acc ~(st : Ast.state_decl) refined ~pc
    ((fn : string), _container, index, pos) =
  let idx = aeval (env_of refined) index in
  let bl, bh = pc_bounds pc index in
  let idx =
    match idx with
    | Anum (l, h) -> Anum (max l bl, min h bh)
    | Atop when Float.is_finite bl || Float.is_finite bh -> Anum (bl, bh)
    | v -> v
  in
  let may_negative =
    match idx with Anum (l, _) -> l < 0. | Abool _ -> false | Atop -> true
  in
  if may_negative && not (Hashtbl.mem acc.v404 (pos, fn)) then
    Hashtbl.replace acc.v404 (pos, fn)
      (Diagnostic.warningf ~pos ~code:"V404"
         "%s index may be out of range in state %s (index evaluates to %s)" fn
         st.sname (aval_to_string idx))

(* Join a store into a per-state table; returns true when it changed. *)
let join_into tbl name (store : astore) : bool =
  match Hashtbl.find_opt tbl name with
  | None ->
      Hashtbl.replace tbl name (store, 1);
      true
  | Some (old, n) ->
      let joined =
        if n >= widen_after then astore_widen old (astore_join old store)
        else astore_join old store
      in
      if astore_equal old joined then false
      else begin
        Hashtbl.replace tbl name (joined, n + 1);
        true
      end

let push acc item = acc.worklist <- item :: acc.worklist

let enqueue_enter acc name store =
  Hashtbl.replace acc.reached name ();
  if join_into acc.enter_in name store then push acc (`Enter name)

let enqueue_steady acc name store =
  if join_into acc.steady_in name store then push acc (`Steady name)

(* Run one dispatch unit symbolically from symbolic inputs. *)
let run_dispatch acc (st : Ast.state_decl) (events : Ast.event list) :
    path list =
  let m = acc.ac_m in
  let globals, locals = sym_inputs m st in
  let store = mk_istore ~globals ~locals in
  let eus =
    List.map
      (fun (ev : Ast.event) ->
        let bindings =
          match ev.trigger with
          | Ast.On_trigger_var (_, Some x) -> [ (x, Svar ("in:" ^ x, None)) ]
          | Ast.On_recv (_, x, _) -> [ (x, Svar ("in:" ^ x, None)) ]
          | _ -> []
        in
        { eu_body = ev.body; eu_frame = Fnames bindings })
      events
  in
  run_events (acc.ac_ctx ()) store eus ~binding:(Svar ("in:_", None))

(* Mark a handler as unexplorable: post is top, all its syntactic
   transits are assumed effective and taken. *)
let handle_unknown acc (st : Ast.state_decl) (events : Ast.event list)
    (ambient : astore) =
  acc.complete <- false;
  let top = astore_top ambient in
  enqueue_steady acc st.sname top;
  List.iter
    (fun (ev : Ast.event) ->
      List.iter
        (fun (pos, tgt) ->
          match tgt with
          | Some t ->
              Hashtbl.replace acc.effective (pos, t) ();
              if state_of acc t <> None then
                enqueue_enter acc t (globals_only top)
          | None ->
              (* dynamic target: every state may be entered *)
              List.iter
                (fun (n, _) -> enqueue_enter acc n (globals_only top))
                acc.ac_states)
        (Semantics.body_transits ev.body))
    events

(* Flow one feasible, transiting path into its target state: exit
   events, transit-mode local inits, then the target's enter events
   (via the worklist). *)
let rec flow_transit acc (src : Ast.state_decl) (post : astore) (tgt : string)
    =
  match state_of acc tgt with
  | None -> ()  (* invalid target: the transit fails at runtime *)
  | Some tgt_st ->
      if String.equal tgt src.sname then ()
      else begin
        (* exit events of [src] under the post store *)
        let exit_events = Semantics.events_for acc.ac_m src Semantics.Exit in
        let after_exit =
          if exit_events = [] then [ post ]
          else
            let paths = run_dispatch acc src exit_events in
            if
              List.exists
                (fun p ->
                  match p.outcome with Unknown _ -> true | _ -> false)
                paths
            then begin
              acc.complete <- false;
              [ astore_top post ]
            end
            else begin
              (* a transit pending during exit still flows into the
                 in-flight target first; the re-transit it causes
                 afterwards is over-approximated by entering its target
                 with a top store *)
              let extra = ref [] in
              let posts =
                process_paths acc src ~what:"on exit" ~ambient:post paths
                  ~on_transit:(fun p _ tgt2 ->
                    extra := p :: !extra;
                    enqueue_enter acc tgt2 (globals_only (astore_top p)))
              in
              posts @ !extra
            end
        in
        let joined =
          match after_exit with
          | [] -> None  (* every exit path is infeasible or fails *)
          | s :: rest -> Some (List.fold_left astore_join s rest)
        in
        match joined with
        | None -> ()
        | Some store ->
            (* transit-mode local inits of the target, evaluated against
               the old state's store *)
            let m = acc.ac_m in
            let g_syms, l_syms = sym_inputs m src in
            let istore = mk_istore ~globals:g_syms ~locals:l_syms in
            let inits =
              List.map
                (fun (v : Ast.var_decl) ->
                  { iu_name = v.vname;
                    iu_slot = None;
                    iu_kind =
                      (match v.vinit with
                      | Some e -> `Expr e
                      | None -> `Default v.vtyp) })
                tgt_st.slocals
            in
            let new_names =
              Array.of_list
                (List.map (fun (v : Ast.var_decl) -> v.vname) tgt_st.slocals)
            in
            let init_paths =
              run_local_inits_transit (acc.ac_ctx ()) istore ~new_names inits
            in
            let flow_one (p : path) =
              match p.outcome with
              | Unknown _ ->
                  acc.complete <- false;
                  enqueue_enter acc tgt (astore_top store)
              | Err _ -> ()
              | Aviol _ | Running -> (
                  match path_feasible store p with
                  | None -> ()
                  | Some refined ->
                      (match p.outcome with
                      | Aviol pos ->
                          record_v403 acc ~st:src
                            ~what:
                              (Printf.sprintf "transit to %s" tgt_st.sname)
                            refined p pos
                      | _ -> ());
                      List.iter (record_v404 acc ~st:src refined ~pc:p.pc)
                        p.obligations;
                      if p.outcome = Running then begin
                        let entry =
                          SMap.of_seq
                            (List.to_seq
                               (List.map
                                  (fun (v : Ast.var_decl) ->
                                    ( lkey v.vname,
                                      match peek_local p.store v.vname with
                                      | Some s -> aeval (env_of refined) s
                                      | None -> Atop ))
                                  tgt_st.slocals))
                        in
                        enqueue_enter acc tgt
                          (SMap.union (fun _ _ l -> Some l)
                             (globals_only (path_post acc src refined p))
                             entry)
                      end)
            in
            List.iter flow_one init_paths
      end

(* Process the paths of one handler run under an ambient store: record
   V403/V404, prune infeasible paths, and return the feasible
   non-transiting post-stores.  Transiting paths are handed to
   [on_transit]. *)
and process_paths acc (st : Ast.state_decl) ~what ~(ambient : astore)
    (paths : path list)
    ~(on_transit : astore -> Ast.pos -> string -> unit) : astore list =
  List.filter_map
    (fun (p : path) ->
      match p.outcome with
      | Unknown _ -> None  (* caller checks for unknowns separately *)
      | _ -> (
          match path_feasible ambient p with
          | None -> None
          | Some refined -> (
              (match p.outcome with
              | Aviol pos -> record_v403 acc ~st ~what refined p pos
              | _ -> ());
              List.iter (record_v404 acc ~st refined ~pc:p.pc) p.obligations;
              match p.outcome with
              | Err _ | Aviol _ ->
                  (* the handler dies here; partial writes persist *)
                  Some (path_post acc st refined p)
              | Running | Unknown _ -> (
                  let post = path_post acc st refined p in
                  match p.pending with
                  | None -> Some post
                  | Some (Pconc (tgt, pos)) ->
                      Hashtbl.replace acc.effective (pos, tgt) ();
                      if String.equal tgt st.sname then Some post
                        (* self-transit: a no-op in both engines *)
                      else begin
                        on_transit post pos tgt;
                        None
                      end
                  | Some (Psym (_, pos)) ->
                      (* dynamic target: any state is possible *)
                      acc.complete <- false;
                      List.iter
                        (fun (n, _) ->
                          Hashtbl.replace acc.effective (pos, n) ();
                          if not (String.equal n st.sname) then
                            on_transit (astore_top post) pos n)
                        acc.ac_states;
                      Some (astore_top post)))))
    paths

(* Run one handler (dispatch unit) of state [st] and flow its results. *)
let run_handler acc (st : Ast.state_decl) ~what (events : Ast.event list)
    (ambient : astore) : astore list =
  if events = [] then []
  else
    let paths = run_dispatch acc st events in
    if List.exists (fun p -> match p.outcome with Unknown _ -> true | _ -> false) paths
    then begin
      handle_unknown acc st events ambient;
      [ astore_top ambient ]
    end
    else
      process_paths acc st ~what ~ambient paths
        ~on_transit:(fun post _pos tgt -> flow_transit acc st post tgt)

let process_enter acc name =
  match (state_of acc name, Hashtbl.find_opt acc.enter_in name) with
  | Some st, Some (ambient, _) ->
      let enter_events = Semantics.events_for acc.ac_m st Semantics.Enter in
      if enter_events = [] then enqueue_steady acc name ambient
      else begin
        let transited = ref [] in
        let posts =
          let paths = run_dispatch acc st enter_events in
          if
            List.exists
              (fun p -> match p.outcome with Unknown _ -> true | _ -> false)
              paths
          then begin
            handle_unknown acc st enter_events ambient;
            transited := [ "?" ];
            [ astore_top ambient ]
          end
          else
            process_paths acc st ~what:"on enter" ~ambient paths
              ~on_transit:(fun post pos tgt ->
                transited := tgt :: !transited;
                ignore pos;
                flow_transit acc st post tgt)
        in
        (* forwarding bookkeeping for the livelock check: did every
           feasible enter path transit away? *)
        let always_forwards = posts = [] && !transited <> [] in
        let fwd =
          match Hashtbl.find_opt acc.forwarding name with
          | Some f -> f
          | None ->
              let f = (true, Hashtbl.create 4) in
              Hashtbl.replace acc.forwarding name f;
              f
        in
        let all, tgts = fwd in
        List.iter (fun t -> Hashtbl.replace tgts t ()) !transited;
        Hashtbl.replace acc.forwarding name (all && always_forwards, tgts);
        List.iter (fun post -> enqueue_steady acc name post) posts
      end
  | _ -> ()

let process_steady acc name =
  match (state_of acc name, Hashtbl.find_opt acc.steady_in name) with
  | Some st, Some (ambient, _) ->
      List.iter
        (fun (what, events) ->
          let posts = run_handler acc st ~what events ambient in
          List.iter (fun post -> enqueue_steady acc name post) posts)
        (steady_dispatches acc.ac_m st)
  | _ -> ()

(* Guaranteed enter-transit cycle detection over the forwarding graph. *)
let find_livelock acc : string list option =
  let edges name =
    match Hashtbl.find_opt acc.forwarding name with
    | Some (true, tgts) when Hashtbl.length tgts > 0 ->
        Hashtbl.fold (fun t () l -> t :: l) tgts [] |> List.sort compare
    | _ -> []
  in
  let rec dfs path visiting name =
    if List.mem name path then
      Some (List.rev (name :: path))
    else if Hashtbl.mem visiting name then None
    else begin
      Hashtbl.replace visiting name ();
      List.find_map (fun t -> dfs (name :: path) visiting t) (edges name)
    end
  in
  let visiting = Hashtbl.create 8 in
  List.find_map
    (fun (name, _) ->
      if Hashtbl.mem acc.reached name then dfs [] visiting name else None)
    acc.ac_states

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let analyze ?(budget = default_budget)
    ?(host_builtins = Builtins.soil_effects) ~(funcs : Ast.func_decl list)
    ~(machine : Ast.machine) () : result =
  let m = machine in
  let hooks =
    List.map (fun (t : Ast.trig_decl) -> (t.tname, t.ttyp)) m.mtrigs
  in
  let mk_ctx () =
    make_ctx ~budget ~host_builtins
      ~funcs:(Ifuncs (List.map (fun (f : Ast.func_decl) -> (f.fname, f)) funcs))
      ~hooks ()
  in
  let acc =
    { ac_m = m;
      ac_ctx = mk_ctx;
      ac_states = List.map (fun (s : Ast.state_decl) -> (s.sname, s)) m.states;
      enter_in = Hashtbl.create 8;
      steady_in = Hashtbl.create 8;
      worklist = [];
      reached = Hashtbl.create 8;
      effective = Hashtbl.create 16;
      forwarding = Hashtbl.create 8;
      v403 = Hashtbl.create 4;
      v404 = Hashtbl.create 4;
      complete = true;
      steps = 0 }
  in
  (match m.states with
  | [] -> ()
  | st0 :: _ ->
      (* machine-variable initialization, then the initial state's
         start-mode locals, then its enter events *)
      let ginits =
        List.map
          (fun (v : Ast.var_decl) ->
            { iu_name = v.vname;
              iu_slot = None;
              iu_kind =
                (if v.is_external then
                   `External (Svar (gkey ("ext:" ^ v.vname), Some v.vtyp))
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
      in
      let linits =
        List.map
          (fun (v : Ast.var_decl) ->
            { iu_name = v.vname;
              iu_slot = None;
              iu_kind =
                (match v.vinit with
                | Some e -> `Expr e
                | None -> `Default v.vtyp) })
          st0.slocals
      in
      let store0 = mk_istore ~globals:[] ~locals:[] in
      let gpaths = run_inits_progressive (mk_ctx ()) store0 `Globals ginits in
      List.iter
        (fun (gp : path) ->
          match gp.outcome with
          | Unknown _ ->
              acc.complete <- false;
              enqueue_enter acc st0.sname SMap.empty
          | Err _ -> ()
          | Running | Aviol _ -> (
              match path_feasible SMap.empty gp with
              | None -> ()
              | Some refined ->
                  let lpaths =
                    run_inits_progressive (mk_ctx ()) gp.store `Locals linits
                  in
                  List.iter
                    (fun (lp : path) ->
                      match lp.outcome with
                      | Unknown _ ->
                          acc.complete <- false;
                          enqueue_enter acc st0.sname SMap.empty
                      | Err _ -> ()
                      | Running | Aviol _ -> (
                          match path_feasible refined lp with
                          | None -> ()
                          | Some refined ->
                              enqueue_enter acc st0.sname
                                (path_post acc st0 refined lp)))
                    lpaths))
        gpaths);
  (* the fixpoint loop *)
  let rec loop () =
    match acc.worklist with
    | [] -> ()
    | item :: rest ->
        acc.worklist <- rest;
        acc.steps <- acc.steps + 1;
        if acc.steps > max_items then acc.complete <- false
        else begin
          (match item with
          | `Enter name -> process_enter acc name
          | `Steady name -> process_steady acc name);
          loop ()
        end
  in
  loop ();
  let reachable =
    List.filter_map
      (fun (name, _) ->
        if Hashtbl.mem acc.reached name then Some name else None)
      acc.ac_states
  in
  let effective_transits =
    Hashtbl.fold (fun k () l -> k :: l) acc.effective []
    |> List.sort compare
  in
  let diags =
    Diagnostic.sort
      (Hashtbl.fold (fun _ d l -> d :: l) acc.v403 []
      @ Hashtbl.fold (fun _ d l -> d :: l) acc.v404 [])
  in
  { machine = m.mname;
    reachable;
    effective_transits;
    livelock = find_livelock acc;
    diags = Diagnostic.sort diags;
    complete = acc.complete }

let analyze_program ?budget ?host_builtins ~(program : Ast.program) () :
    result list =
  List.filter_map
    (fun (m : Ast.machine) ->
      if m.states = [] then None
      else
        Some (analyze ?budget ?host_builtins ~funcs:program.funcs ~machine:m ()))
    program.machines
