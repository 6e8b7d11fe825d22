exception Error of string

exception Error_diag of Diagnostic.t

(* The position of the declaration/statement currently being checked:
   [fail] attaches it to the diagnostic it raises.  The ref is updated on
   entry to every positioned construct, so expression-level errors
   inherit their statement's span.  It is domain-local so that parallel
   sweeps (Sim.Sweep) can typecheck/deploy concurrently without racing
   on diagnostic positions. *)
let cur_pos_key = Domain.DLS.new_key (fun () -> ref Ast.no_pos)

let cur_pos () = Domain.DLS.get cur_pos_key

let at (pos : Ast.pos) = if pos <> Ast.no_pos then cur_pos () := pos

let failc code fmt =
  Printf.ksprintf
    (fun m -> raise (Error_diag (Diagnostic.error ~pos:!(cur_pos ()) ~code m)))
    fmt

(* Generic type error; the more specific T-codes use [failc]. *)
let fail fmt = failc "T001" fmt

type sigty = Builtins.sigty = Any | Numeric | Ty of Ast.typ

type func_sig = Builtins.func_sig = { args : sigty list; ret : sigty }

let builtin_signatures =
  List.map (fun (r : Builtins.row) -> (r.name, r.signature)) Builtins.catalogue

(* ------------------------------------------------------------------ *)
(* Inheritance resolution                                              *)
(* ------------------------------------------------------------------ *)

let resolve_inheritance machines =
  let by_name = Hashtbl.create 8 in
  List.iter
    (fun (m : Ast.machine) ->
      if Hashtbl.mem by_name m.mname then
        failc "T007" "duplicate machine %s" m.mname;
      Hashtbl.replace by_name m.mname m)
    machines;
  let resolved : (string, Ast.machine) Hashtbl.t = Hashtbl.create 8 in
  let rec resolve seen (m : Ast.machine) =
    match Hashtbl.find_opt resolved m.mname with
    | Some r -> r
    | None -> (
        match m.extends with
        | None ->
            Hashtbl.replace resolved m.mname m;
            m
        | Some parent_name ->
            if List.mem parent_name seen then
              failc "T008" "inheritance cycle involving machine %s" m.mname;
            let parent =
              match Hashtbl.find_opt by_name parent_name with
              | Some p -> p
              | None ->
                  failc "T008" "machine %s extends unknown machine %s" m.mname
                    parent_name
            in
            let parent = resolve (m.mname :: seen) parent in
            (* variables: no overriding or shadowing *)
            List.iter
              (fun (v : Ast.var_decl) ->
                if
                  List.exists
                    (fun (pv : Ast.var_decl) -> pv.vname = v.vname)
                    parent.mvars
                then
                  failc "T008" "machine %s shadows inherited variable %s" m.mname
                    v.vname)
              m.mvars;
            List.iter
              (fun (v : Ast.trig_decl) ->
                if
                  List.exists
                    (fun (pv : Ast.trig_decl) -> pv.tname = v.tname)
                    parent.mtrigs
                then
                  failc "T008" "machine %s shadows inherited trigger %s" m.mname
                    v.tname)
              m.mtrigs;
            (* states: child overrides same-named parent states *)
            let merged =
              { m with
                extends = None;
                places = (if m.places = [] then parent.places else m.places);
                mvars = parent.mvars @ m.mvars;
                mtrigs = parent.mtrigs @ m.mtrigs;
                (* keep parent state order (initial state is the parent's
                   first unless overridden) *)
                states =
                  List.map
                    (fun (ps : Ast.state_decl) ->
                      match
                        List.find_opt
                          (fun (cs : Ast.state_decl) -> cs.sname = ps.sname)
                          m.states
                      with
                      | Some cs -> cs
                      | None -> ps)
                    parent.states
                  @ List.filter
                      (fun (cs : Ast.state_decl) ->
                        not
                          (List.exists
                             (fun (ps : Ast.state_decl) ->
                               ps.sname = cs.sname)
                             parent.states))
                      m.states;
                mevents = parent.mevents @ m.mevents }
            in
            Hashtbl.replace resolved m.mname merged;
            merged)
  in
  List.map (resolve []) machines

(* ------------------------------------------------------------------ *)
(* Types                                                               *)
(* ------------------------------------------------------------------ *)

type ty = TAny | TAst of Ast.typ | TTrig of Ast.trigger_type

let is_numeric = function
  | TAst (Ast.Tint | Ast.Tlong | Ast.Tfloat) | TAny -> true
  | TAst _ | TTrig _ -> false

let compat a b =
  match (a, b) with
  | TAny, _ | _, TAny -> true
  | TAst x, TAst y -> x = y || (is_numeric a && is_numeric b)
  | TTrig x, TTrig y -> x = y
  | (TAst _ | TTrig _), _ -> false

let ty_name = function
  | TAny -> "any"
  | TAst t -> Ast.typ_to_string t
  | TTrig t -> Ast.trigger_type_to_string t

let sig_compat (s : sigty) (t : ty) =
  match s with
  | Any -> true
  | Numeric -> is_numeric t
  | Ty want -> compat (TAst want) t

type env = {
  vars : (string * ty) list;
  funcs : (string * func_sig) list;
  states : string list;  (** valid transit targets *)
  machine : string;
  in_util : bool;
}

let lookup_var env name = List.assoc_opt name env.vars

let resource_fields = [ "vCPU"; "RAM"; "TCAM"; "PCIe" ]

let packet_fields =
  [ ("size", TAst Ast.Tfloat); ("srcIP", TAst Ast.Tstring);
    ("dstIP", TAst Ast.Tstring); ("srcPort", TAst Ast.Tfloat);
    ("dstPort", TAst Ast.Tfloat); ("proto", TAst Ast.Tstring);
    ("syn", TAst Ast.Tbool); ("ack", TAst Ast.Tbool);
    ("fin", TAst Ast.Tbool); ("rst", TAst Ast.Tbool);
    ("payload", TAst Ast.Tstring) ]

let util_ops = [ Ast.And; Ast.Or; Ast.Eq; Ast.Le; Ast.Ge; Ast.Add; Ast.Sub;
                 Ast.Mul; Ast.Div ]

let rec check_expr env (e : Ast.expr) : ty =
  match e with
  | Ast.Bool _ -> TAst Ast.Tbool
  | Ast.Int _ -> TAst Ast.Tint
  | Ast.Float _ -> TAst Ast.Tfloat
  | Ast.String _ -> TAst Ast.Tstring
  | Ast.AnyLit -> TAst Ast.Tfilter
  | Ast.Var v -> (
      match lookup_var env v with
      | Some t -> t
      | None -> failc "T002" "machine %s: unbound variable %s" env.machine v)
  | Ast.Field (b, f) -> (
      let bt = check_expr env b in
      match bt with
      | TAst Ast.Tresources ->
          if List.mem f resource_fields then TAst Ast.Tfloat
          else
            failc "T009" "machine %s: unknown resource field %s (expected %s)"
              env.machine f
              (String.concat "/" resource_fields)
      | TAst Ast.Tpacket -> (
          match List.assoc_opt f packet_fields with
          | Some t -> t
          | None -> failc "T009" "machine %s: unknown packet field %s" env.machine f)
      | TAst Ast.Trule -> (
          match f with
          | "pattern" -> TAst Ast.Tfilter
          | "act" -> TAst Ast.Taction
          | _ -> failc "T009" "machine %s: unknown rule field %s" env.machine f)
      | TAny -> TAny
      | t ->
          failc "T009" "machine %s: %s values have no field %s" env.machine
            (ty_name t) f)
  | Ast.Call (f, args) -> (
      if env.in_util && f <> "min" && f <> "max" then
        failc "T005"
          "machine %s: util may only call min and max, not %s (§III-A f)"
          env.machine f;
      match List.assoc_opt f env.funcs with
      | None -> failc "T003" "machine %s: unknown function %s" env.machine f
      | Some fsig ->
          if List.length fsig.args <> List.length args then
            failc "T004" "machine %s: %s expects %d argument(s), got %d" env.machine
              f (List.length fsig.args) (List.length args);
          List.iter2
            (fun want arg ->
              let got = check_expr env arg in
              if not (sig_compat want got) then
                failc "T004" "machine %s: bad argument to %s: got %s" env.machine f
                  (ty_name got))
            fsig.args args;
          (match fsig.ret with
          | Any -> TAny
          | Numeric -> TAst Ast.Tfloat
          | Ty t -> TAst t))
  | Ast.Unop (Ast.Not, a) -> (
      match check_expr env a with
      | TAst Ast.Tbool -> TAst Ast.Tbool
      | TAst Ast.Tfilter -> TAst Ast.Tfilter
      | t -> fail "machine %s: 'not' applied to %s" env.machine (ty_name t))
  | Ast.Unop (Ast.Neg, a) ->
      let t = check_expr env a in
      if is_numeric t then TAst Ast.Tfloat
      else fail "machine %s: negation of %s" env.machine (ty_name t)
  | Ast.Binop (op, a, b) -> (
      if env.in_util && not (List.mem op util_ops) then
        failc "T005" "machine %s: operator %s is not allowed in util (§III-A f)"
          env.machine (Ast.binop_to_string op);
      let ta = check_expr env a and tb = check_expr env b in
      match op with
      | Ast.And | Ast.Or -> (
          match (ta, tb) with
          | TAst Ast.Tbool, TAst Ast.Tbool -> TAst Ast.Tbool
          | TAst Ast.Tfilter, TAst Ast.Tfilter -> TAst Ast.Tfilter
          | _ ->
              fail "machine %s: %s/%s operands of '%s'" env.machine
                (ty_name ta) (ty_name tb) (Ast.binop_to_string op))
      | Ast.Eq | Ast.Neq ->
          if compat ta tb then TAst Ast.Tbool
          else
            fail "machine %s: comparing %s with %s" env.machine (ty_name ta)
              (ty_name tb)
      | Ast.Le | Ast.Ge | Ast.Lt | Ast.Gt ->
          if is_numeric ta && is_numeric tb then TAst Ast.Tbool
          else
            fail "machine %s: ordering %s with %s" env.machine (ty_name ta)
              (ty_name tb)
      | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div ->
          if is_numeric ta && is_numeric tb then TAst Ast.Tfloat
          else if
            (* [+] doubles as string concatenation *)
            op = Ast.Add
            && compat ta (TAst Ast.Tstring)
            && compat tb (TAst Ast.Tstring)
          then TAst Ast.Tstring
          else
            fail "machine %s: arithmetic on %s and %s" env.machine
              (ty_name ta) (ty_name tb))
  | Ast.FilterAtom (head, arg) ->
      (match (head, arg) with
      | _, Ast.AnyLit -> ()
      | (Ast.SrcIP | Ast.DstIP), arg ->
          let t = check_expr env arg in
          if not (compat t (TAst Ast.Tstring)) then
            fail "machine %s: IP filter argument must be a string"
              env.machine
      | (Ast.SrcPort | Ast.DstPort | Ast.PortF), arg ->
          let t = check_expr env arg in
          if not (is_numeric t) then
            fail "machine %s: port filter argument must be numeric"
              env.machine
      | Ast.ProtoF, arg ->
          let t = check_expr env arg in
          if not (compat t (TAst Ast.Tstring)) then
            fail "machine %s: proto filter argument must be a string"
              env.machine);
      TAst Ast.Tfilter
  | Ast.StructLit (name, fields) -> (
      let get f = List.assoc_opt f fields in
      let check_field f want =
        match get f with
        | None -> fail "machine %s: %s literal misses field %s" env.machine name f
        | Some e ->
            let t = check_expr env e in
            if not (sig_compat want t) then
              fail "machine %s: field %s of %s has type %s" env.machine f
                name (ty_name t)
      in
      let only allowed =
        List.iter
          (fun (f, _) ->
            if not (List.mem f allowed) then
              failc "T009" "machine %s: %s literal has unknown field %s" env.machine
                name f)
          fields
      in
      match name with
      | "Poll" ->
          only [ "ival"; "what" ];
          check_field "ival" Numeric;
          check_field "what" (Ty Ast.Tfilter);
          TTrig Ast.Poll
      | "Probe" ->
          only [ "ival"; "what" ];
          check_field "ival" Numeric;
          check_field "what" (Ty Ast.Tfilter);
          TTrig Ast.Probe
      | "Time" ->
          only [ "ival" ];
          check_field "ival" Numeric;
          TTrig Ast.Time
      | "Rule" ->
          only [ "pattern"; "act" ];
          check_field "pattern" (Ty Ast.Tfilter);
          check_field "act" (Ty Ast.Taction);
          TAst Ast.Trule
      | _ -> failc "T009" "machine %s: unknown struct %s" env.machine name)
  | Ast.ListLit es ->
      List.iter (fun e -> ignore (check_expr env e)) es;
      TAst Ast.Tlist

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let rec check_stmt env ~ret (s : Ast.stmt) : env =
  at s.Ast.sloc;
  match s.Ast.sk with
  | Ast.Decl (t, n, init) ->
      (match init with
      | None -> ()
      | Some e ->
          let et = check_expr env e in
          if not (compat (TAst t) et) then
            fail "machine %s: initializing %s %s with %s" env.machine
              (Ast.typ_to_string t) n (ty_name et));
      { env with vars = (n, TAst t) :: env.vars }
  | Ast.Assign (n, e) -> (
      match lookup_var env n with
      | None -> failc "T002" "machine %s: assignment to unbound variable %s" env.machine n
      | Some (TTrig tt) -> (
          let et = check_expr env e in
          match et with
          | TTrig tt' when tt = tt' -> env
          | t when is_numeric t -> env  (* shorthand: adjust the period *)
          | t ->
              fail "machine %s: assigning %s to trigger variable %s"
                env.machine (ty_name t) n)
      | Some t ->
          let et = check_expr env e in
          if not (compat t et) then
            fail "machine %s: assigning %s to %s variable %s" env.machine
              (ty_name et) (ty_name t) n;
          env)
  | Ast.Transit e ->
      (match e with
      | Ast.Var s | Ast.String s ->
          if not (List.mem s env.states) then
            failc "T006" "machine %s: transit to unknown state %s" env.machine s
      | _ -> failc "T006" "machine %s: transit target must be a state name" env.machine);
      env
  | Ast.If (c, t, f) ->
      let ct = check_expr env c in
      if not (compat ct (TAst Ast.Tbool)) then
        fail "machine %s: if condition must be boolean" env.machine;
      ignore (check_stmts env ~ret t);
      ignore (check_stmts env ~ret f);
      env
  | Ast.While (c, b) ->
      if env.in_util then
        failc "T005" "machine %s: while is not allowed in util (§III-A f)" env.machine;
      let ct = check_expr env c in
      if not (compat ct (TAst Ast.Tbool)) then
        fail "machine %s: while condition must be boolean" env.machine;
      ignore (check_stmts env ~ret b);
      env
  | Ast.Return None ->
      (match ret with
      | Some t when not (compat t (TAst Ast.Tunit)) ->
          fail "machine %s: return without a value" env.machine
      | Some _ | None -> ());
      env
  | Ast.Return (Some e) ->
      let et = check_expr env e in
      (match ret with
      | Some want when not (compat want et) ->
          fail "machine %s: return type %s, expected %s" env.machine
            (ty_name et) (ty_name want)
      | Some _ | None -> ());
      env
  | Ast.Send (e, dest) ->
      if env.in_util then
        failc "T005" "machine %s: send is not allowed in util" env.machine;
      ignore (check_expr env e);
      (match dest with
      | Ast.Harvester | Ast.Machine (_, None) -> ()
      | Ast.Machine (_, Some d) -> ignore (check_expr env d));
      env
  | Ast.ExprStmt e ->
      ignore (check_expr env e);
      env

and check_stmts env ~ret stmts =
  List.fold_left (fun env s -> check_stmt env ~ret s) env stmts

(* util restriction: only if/return statements *)
let rec check_util_stmts env stmts =
  List.iter
    (fun (s : Ast.stmt) ->
      at s.Ast.sloc;
      match s.Ast.sk with
      | Ast.If (c, t, f) ->
          let ct = check_expr env c in
          if not (compat ct (TAst Ast.Tbool)) then
            fail "machine %s: util condition must be boolean" env.machine;
          check_util_stmts env t;
          check_util_stmts env f
      | Ast.Return (Some e) ->
          let t = check_expr env e in
          if not (is_numeric t) then
            failc "T005" "machine %s: util must return a number" env.machine
      | Ast.Return None -> failc "T005" "machine %s: util must return a value" env.machine
      | Ast.Decl _ | Ast.Assign _ | Ast.Transit _ | Ast.While _ | Ast.Send _
      | Ast.ExprStmt _ ->
          failc "T005"
            "machine %s: util may contain only if-then-else and return \
             (§III-A f)"
            env.machine)
    stmts

(* ------------------------------------------------------------------ *)
(* Machines and programs                                               *)
(* ------------------------------------------------------------------ *)

let trigger_binding env (m : Ast.machine) (trigger : Ast.trigger) =
  match trigger with
  | Ast.On_enter | Ast.On_exit | Ast.On_realloc -> env
  | Ast.On_trigger_var (y, bind) -> (
      match List.find_opt (fun (t : Ast.trig_decl) -> t.tname = y) m.mtrigs with
      | None -> fail "machine %s: event on unknown trigger variable %s" m.mname y
      | Some t -> (
          match bind with
          | None -> env
          | Some x ->
              let ty =
                match t.ttyp with
                | Ast.Poll -> TAst Ast.Tstats
                | Ast.Probe -> TAst Ast.Tpacket
                | Ast.Time -> TAst Ast.Tfloat
              in
              { env with vars = (x, ty) :: env.vars }))
  | Ast.On_recv (t, n, _) -> { env with vars = (n, TAst t) :: env.vars }

let check_event env m (ev : Ast.event) =
  at ev.evloc;
  let env = trigger_binding env m ev.trigger in
  ignore (check_stmts env ~ret:None ev.body)

let check_machine funcs (m : Ast.machine) =
  cur_pos () := m.mloc;
  if m.states = [] then failc "T010" "machine %s has no states" m.mname;
  let state_names = List.map (fun (s : Ast.state_decl) -> s.sname) m.states in
  let dup l =
    let rec go = function
      | [] -> None
      | x :: rest -> if List.mem x rest then Some x else go rest
    in
    go l
  in
  (match dup state_names with
  | Some s -> failc "T007" "machine %s: duplicate state %s" m.mname s
  | None -> ());
  let var_names =
    List.map (fun (v : Ast.var_decl) -> v.vname) m.mvars
    @ List.map (fun (t : Ast.trig_decl) -> t.tname) m.mtrigs
  in
  (match dup var_names with
  | Some v -> failc "T007" "machine %s: duplicate variable %s" m.mname v
  | None -> ());
  let base_vars =
    List.map (fun (v : Ast.var_decl) -> (v.vname, TAst v.vtyp)) m.mvars
    @ List.map (fun (t : Ast.trig_decl) -> (t.tname, TTrig t.ttyp)) m.mtrigs
  in
  let env =
    { vars = base_vars; funcs; states = state_names; machine = m.mname;
      in_util = false }
  in
  (* variable initializers *)
  List.iter
    (fun (v : Ast.var_decl) ->
      at v.vloc;
      match v.vinit with
      | None -> ()
      | Some e ->
          let t = check_expr env e in
          if not (compat (TAst v.vtyp) t) then
            fail "machine %s: initializer of %s has type %s" m.mname v.vname
              (ty_name t))
    m.mvars;
  List.iter
    (fun (t : Ast.trig_decl) ->
      at t.tloc;
      match t.tinit with
      | None -> ()
      | Some e -> (
          match check_expr env e with
          | TTrig tt when tt = t.ttyp -> ()
          | ty ->
              fail "machine %s: trigger %s initialized with %s" m.mname
                t.tname (ty_name ty)))
    m.mtrigs;
  (* placement directives *)
  List.iter
    (fun (p : Ast.place_decl) ->
      at p.ploc;
      match p.pconstraint with
      | Ast.Anywhere -> ()
      | Ast.At_nodes es -> List.iter (fun e -> ignore (check_expr env e)) es
      | Ast.On_range { pfilter; rbound; _ } ->
          (match pfilter with
          | None -> ()
          | Some f ->
              let t = check_expr env f in
              if not (compat t (TAst Ast.Tfilter)) then
                fail "machine %s: placement filter must have type filter"
                  m.mname);
          let t = check_expr env rbound in
          if not (is_numeric t) then
            fail "machine %s: range bound must be numeric" m.mname)
    m.places;
  (* states *)
  List.iter
    (fun (s : Ast.state_decl) ->
      at s.stloc;
      let senv =
        { env with
          vars =
            List.map
              (fun (v : Ast.var_decl) ->
                if v.is_external then
                  fail "machine %s: external variable in state %s" m.mname
                    s.sname;
                (v.vname, TAst v.vtyp))
              s.slocals
            @ env.vars }
      in
      List.iter
        (fun (v : Ast.var_decl) ->
          at v.vloc;
          match v.vinit with
          | None -> ()
          | Some e ->
              let t = check_expr senv e in
              if not (compat (TAst v.vtyp) t) then
                fail "machine %s: state %s: initializer of %s has type %s"
                  m.mname s.sname v.vname (ty_name t))
        s.slocals;
      (match s.sutil with
      | None -> ()
      | Some u ->
          at u.uloc;
          let uenv =
            { senv with
              vars = (u.uparam, TAst Ast.Tresources) :: senv.vars;
              in_util = true }
          in
          check_util_stmts uenv u.ubody);
      List.iter (check_event senv m) s.sevents)
    m.states;
  (* machine-level events *)
  List.iter (check_event env m) m.mevents

let check_func funcs (f : Ast.func_decl) =
  cur_pos () := f.floc;
  let env =
    { vars = List.map (fun (t, n) -> (n, TAst t)) f.fparams;
      funcs; states = []; machine = Printf.sprintf "<function %s>" f.fname;
      in_util = false }
  in
  ignore (check_stmts env ~ret:(Some (TAst f.fret)) f.fbody)

let signatures ?(extra = []) (p : Ast.program) =
  let user_sigs =
    List.map
      (fun (f : Ast.func_decl) ->
        ( f.fname,
          { args = List.map (fun (t, _) -> Ty t) f.fparams; ret = Ty f.fret }
        ))
      p.funcs
  in
  user_sigs @ extra @ builtin_signatures

let check ?extra (p : Ast.program) =
  cur_pos () := Ast.no_pos;
  try
    let machines = resolve_inheritance p.machines in
    let funcs = signatures ?extra p in
    List.iter (check_func funcs) p.funcs;
    List.iter (check_machine funcs) machines;
    { p with machines }
  with Error_diag d -> raise (Error d.Diagnostic.message)

(* Multi-error variant: one diagnostic per failing function/machine (the
   checker still stops at the first error within each). *)
let check_diags ?extra (p : Ast.program) =
  cur_pos () := Ast.no_pos;
  match resolve_inheritance p.machines with
  | exception Error_diag d -> Stdlib.Error [ d ]
  | machines ->
      let funcs = signatures ?extra p in
      let errs = ref [] in
      let guard f x =
        try f x with Error_diag d -> errs := d :: !errs
      in
      List.iter (guard (check_func funcs)) p.funcs;
      List.iter (guard (check_machine funcs)) machines;
      if !errs = [] then Ok { p with machines }
      else Stdlib.Error (Diagnostic.sort (List.rev !errs))
