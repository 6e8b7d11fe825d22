(** Compilation of type-checked Almanac machines to slot-indexed closures.

    The reference interpreter ({!Interp}) resolves every variable through a
    string-keyed scope chain (event frame -> state locals -> machine
    globals) and every call through a string match, on every trigger
    firing.  This pass performs that resolution once:

    - every variable name is mapped to an integer slot in a flat
      [Value.t array] (one array for machine globals, one per-state array
      for state locals, one per-event/function array for the frame);
    - every expression and statement is compiled into an OCaml closure
      [env -> Value.t] / [env -> unit];
    - every call site gets an index into a per-instance array of
      pre-resolved closures (host builtin / Almanac function / pure
      builtin, resolved in the interpreter's precedence order by
      {!Exec.create_compiled});
    - event dispatch tables are precomputed per (state, trigger) pair,
      including the state-overrides-machine rule, so firing a trigger is
      an array index plus closure calls.

    The produced code is observationally equivalent to {!Interp} on
    type-checked programs; the dynamic corner cases of the interpreter
    (conditionally-executed declarations, progressive initializer
    visibility, transit initializers reading the *old* state's locals) are
    reproduced with an [absent] sentinel and per-slot presence checks —
    see DESIGN.md "Almanac execution pipeline".  Compile once per machine;
    instantiate many times with {!Exec.create_compiled}. *)

let fail = Host.fail

(* Unique sentinel marking a slot whose variable has not been bound yet
   (interpreter equivalent: the key is not in the hashtable).  Compared
   with physical equality; programs cannot forge it. *)
let absent : Value.t = Value.Str "\000almanac-absent"

(* ------------------------------------------------------------------ *)
(* Runtime environment                                                 *)
(* ------------------------------------------------------------------ *)

(* The mutable execution environment threaded through compiled closures.
   [locals_names] always describes the layout of [locals]: during a
   transition the state id already points at the new state while the
   locals still belong to the old one (initializers read the old scope,
   as in the interpreter). *)
type env = {
  host : Host.host;
  globals : Value.t array;
  mutable state : int;
  mutable locals : Value.t array;
  mutable locals_names : string array;
  mutable frame : Value.t array;
  mutable pending : string option;  (* transit target (a state name) *)
  mutable calls : (Value.t list -> Value.t) array;
      (* per call site, resolved by Exec.create_compiled *)
}

type ecode = env -> Value.t
type scode = env -> unit

(* ------------------------------------------------------------------ *)
(* Compiled program pieces                                             *)
(* ------------------------------------------------------------------ *)

type event_c = {
  ev_frame_size : int;
  ev_binding : int option;  (* frame slot of the trigger/recv binding *)
  ev_body : scode;
}

type recv_c = { rc_typ : Ast.typ; rc_dest : Ast.dest; rc_ev : event_c }

type state_c = {
  st_name : string;
  st_local_names : string array;
  st_local_inits : (int * ecode) array;
      (* (slot, initializer) in declaration order *)
  st_enter : event_c array;
  st_exit : event_c array;
  st_realloc : event_c array;
  st_triggers : event_c array array;  (* indexed by trigger id *)
  st_recv : recv_c array;  (* state events first, then machine events *)
}

type func_c = {
  fn_name : string;
  fn_nparams : int;
  fn_param_slots : int array;
  fn_frame_size : int;
  fn_body : scode;
}

(* ------------------------------------------------------------------ *)
(* Verification plan                                                   *)
(* ------------------------------------------------------------------ *)

(* An inspectable mirror of every resolution decision this pass makes
   (slot layouts, bound sets, dispatch tables, initializer order).  The
   closures above are opaque; the plan is data, so {!Equiv} can execute
   it symbolically against the interpreter semantics and tests can
   corrupt it to prove divergences are caught.  It is built *during*
   compilation from the same layout tables the closures capture — not
   re-derived — so a layout or dispatch bug shows up in the plan too. *)

type vframe = {
  vf_slots : (string * int) list;  (* name -> frame slot, sorted by slot *)
  vf_bound : string list;  (* names read without a presence check *)
  vf_size : int;
}

type vevent = {
  ve_frame : vframe;
  ve_binding : (string * int) option;
  ve_locals : (string * int) list option;
      (* static state-local table the body is specialized to; [None]
         resolves dynamically against the runtime locals_names *)
  ve_body : Ast.stmt list;
}

type vinit = Vexpr of Ast.expr | Vdefault of Ast.typ | Vunit

type vstate = {
  vs_name : string;
  vs_local_names : string array;
  vs_local_inits : (int * string * vinit) list;  (* declaration order *)
  vs_enter : vevent list;
  vs_exit : vevent list;
  vs_realloc : vevent list;
  vs_triggers : (string * vevent list) list;  (* per trigger name *)
  vs_recv : (Ast.typ * Ast.dest * vevent) list;  (* deliver order *)
}

type vfunc = {
  vfn_params : (string * int) list;  (* parameter order *)
  vfn_frame : vframe;
  vfn_body : Ast.stmt list;
}

type plan = {
  v_machine : string;
  v_initial : string;
  v_global_slots : (string * int) list;  (* sorted by slot *)
  v_global_inits : (int * string * bool * vinit) list;
      (* (slot, name, is_external, initializer) in declaration order *)
  v_trig_hooks : (string * Ast.trigger_type) list;
  v_trig_names : string list;
  v_states : vstate list;  (* declaration order; head = initial *)
  v_funcs : (string * vfunc) list;
}

type t = {
  c_machine : Ast.machine;
  c_n_globals : int;
  c_global_names : string array;
  c_global_slots : (string, int) Hashtbl.t;
  c_global_inits : (int * string * bool * ecode) array;
      (* (slot, name, is_external, initializer) in declaration order *)
  c_states : state_c array;
  c_state_ids : (string, int) Hashtbl.t;
  c_trig_ids : (string, int) Hashtbl.t;
  c_n_trigs : int;
  c_funcs : (string, func_c) Hashtbl.t;
  c_call_specs : (string * int) array;  (* (function name, arg count) *)
  c_plan : plan;
}

(* ------------------------------------------------------------------ *)
(* Compilation context and scopes                                      *)
(* ------------------------------------------------------------------ *)

type ctx = {
  cx_global_slots : (string, int) Hashtbl.t;
  cx_trig_hook : (string, Ast.trigger_type) Hashtbl.t;
      (* trigger-variable names: assignment notifies the host *)
  mutable cx_calls : (string * int) list;  (* reversed call-site specs *)
  mutable cx_n_calls : int;
}

(* Frame layout of one event or function body.  [l_bound] marks names that
   are guaranteed present on entry (parameters, trigger bindings) and can
   be read without a presence check. *)
type layout = {
  l_slots : (string, int) Hashtbl.t;
  l_bound : (string, unit) Hashtbl.t;
  mutable l_size : int;
}

let new_layout () =
  { l_slots = Hashtbl.create 8; l_bound = Hashtbl.create 4; l_size = 0 }

let layout_add lay name =
  match Hashtbl.find_opt lay.l_slots name with
  | Some i -> i
  | None ->
      let i = lay.l_size in
      lay.l_size <- i + 1;
      Hashtbl.replace lay.l_slots name i;
      i

let layout_add_bound lay name =
  let i = layout_add lay name in
  Hashtbl.replace lay.l_bound name ();
  i

(* Pre-pass: collect every declared name of a body (including branches
   that may not execute) so reads textually before a declaration resolve
   like the interpreter's dynamic frame lookup. *)
let rec collect_decls lay stmts =
  List.iter
    (fun (s : Ast.stmt) ->
      match s.Ast.sk with
      | Ast.Decl (_, n, _) -> ignore (layout_add lay n)
      | Ast.If (_, a, b) ->
          collect_decls lay a;
          collect_decls lay b
      | Ast.While (_, b) -> collect_decls lay b
      | Ast.Assign _ | Ast.Transit _ | Ast.Return _ | Ast.Send _
      | Ast.ExprStmt _ ->
          ())
    stmts

type scope = {
  sc_frame : layout option;  (* None: initializer context (no frame) *)
  sc_locals : (string, int) Hashtbl.t option;
      (* static layout of the state the code is specialized to; [None]
         resolves state locals dynamically against [env.locals_names]
         (initializers, function bodies) *)
}

(* ------------------------------------------------------------------ *)
(* Variable access                                                     *)
(* ------------------------------------------------------------------ *)

let global_read ctx name : ecode =
  match Hashtbl.find_opt ctx.cx_global_slots name with
  | Some g ->
      fun env ->
        let v = env.globals.(g) in
        if v != absent then v else fail "unbound variable %s" name
  | None -> fun _ -> fail "unbound variable %s" name

(* state locals, then globals *)
let outer_read ctx scope name : ecode =
  let g = global_read ctx name in
  match scope.sc_locals with
  | Some tbl -> (
      match Hashtbl.find_opt tbl name with
      | Some i ->
          fun env ->
            let v = env.locals.(i) in
            if v != absent then v else g env
      | None -> g)
  | None ->
      fun env ->
        let names = env.locals_names in
        let n = Array.length names in
        let rec go i =
          if i >= n then g env
          else if String.equal names.(i) name then
            let v = env.locals.(i) in
            if v != absent then v else g env
          else go (i + 1)
        in
        go 0

let compile_var ctx scope name : ecode =
  match scope.sc_frame with
  | Some lay -> (
      match Hashtbl.find_opt lay.l_slots name with
      | Some i ->
          if Hashtbl.mem lay.l_bound name then fun env -> env.frame.(i)
          else
            let outer = outer_read ctx scope name in
            fun env ->
              let v = env.frame.(i) in
              if v != absent then v else outer env
      | None -> outer_read ctx scope name)
  | None -> outer_read ctx scope name

type writer = env -> Value.t -> unit

let global_write ctx name : writer =
  match Hashtbl.find_opt ctx.cx_global_slots name with
  | Some g -> (
      let base env v =
        if env.globals.(g) == absent then
          fail "assignment to unbound variable %s" name;
        env.globals.(g) <- v
      in
      match Hashtbl.find_opt ctx.cx_trig_hook name with
      | Some tt ->
          fun env v ->
            base env v;
            env.host.h_set_trigger name tt v
      | None -> base)
  | None -> fun _ _ -> fail "assignment to unbound variable %s" name

let outer_write ctx scope name : writer =
  let g = global_write ctx name in
  match scope.sc_locals with
  | Some tbl -> (
      match Hashtbl.find_opt tbl name with
      | Some i ->
          fun env v ->
            if env.locals.(i) != absent then env.locals.(i) <- v else g env v
      | None -> g)
  | None ->
      fun env v ->
        let names = env.locals_names in
        let n = Array.length names in
        let rec go i =
          if i >= n then g env v
          else if String.equal names.(i) name then
            if env.locals.(i) != absent then env.locals.(i) <- v else g env v
          else go (i + 1)
        in
        go 0

let compile_assign_target ctx scope name : writer =
  match scope.sc_frame with
  | Some lay -> (
      match Hashtbl.find_opt lay.l_slots name with
      | Some i ->
          if Hashtbl.mem lay.l_bound name then fun env v -> env.frame.(i) <- v
          else
            let outer = outer_write ctx scope name in
            fun env v ->
              if env.frame.(i) != absent then env.frame.(i) <- v
              else outer env v
      | None -> outer_write ctx scope name)
  | None -> outer_write ctx scope name

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let num f = Value.Num f

(* Evaluate compiled argument codes left to right (the interpreter uses
   [List.map], which the stdlib evaluates left to right). *)
let eval_args (codes : ecode array) env : Value.t list =
  let n = Array.length codes in
  let rec go i = if i >= n then [] else
    let v = codes.(i) env in
    v :: go (i + 1)
  in
  go 0

let rec compile_expr ctx scope (e : Ast.expr) : ecode =
  match e with
  | Ast.Bool b ->
      let v = Value.Bool b in
      fun _ -> v
  | Ast.Int i ->
      let v = num (float_of_int i) in
      fun _ -> v
  | Ast.Float f ->
      let v = num f in
      fun _ -> v
  | Ast.String s ->
      let v = Value.Str s in
      fun _ -> v
  | Ast.AnyLit ->
      let v = Value.FilterV (Farm_net.Filter.atom Farm_net.Filter.Any) in
      fun _ -> v
  | Ast.Var name -> compile_var ctx scope name
  | Ast.Field (b, f) ->
      let cb = compile_expr ctx scope b in
      fun env -> Value.field (cb env) f
  | Ast.Call (fname, args) ->
      let idx = ctx.cx_n_calls in
      ctx.cx_n_calls <- idx + 1;
      ctx.cx_calls <- (fname, List.length args) :: ctx.cx_calls;
      let codes = Array.of_list (List.map (compile_expr ctx scope) args) in
      (match codes with
      | [||] -> fun env -> env.calls.(idx) []
      | [| a |] -> fun env -> env.calls.(idx) [ a env ]
      | [| a; b |] ->
          fun env ->
            let va = a env in
            let vb = b env in
            env.calls.(idx) [ va; vb ]
      | codes -> fun env -> env.calls.(idx) (eval_args codes env))
  | Ast.Unop (Ast.Not, a) -> (
      let ca = compile_expr ctx scope a in
      fun env ->
        match ca env with
        | Value.Bool b -> Value.Bool (not b)
        | Value.FilterV f -> Value.FilterV (Farm_net.Filter.Not f)
        | v -> fail "'not' applied to %s" (Value.to_string v))
  | Ast.Unop (Ast.Neg, a) ->
      let ca = compile_expr ctx scope a in
      fun env -> num (-.Value.as_num (ca env))
  | Ast.Binop (op, a, b) -> compile_binop ctx scope op a b
  | Ast.FilterAtom (head, arg) ->
      let ca = compile_expr ctx scope arg in
      fun env -> Value.FilterV (Builtins.filter_atom_value head (ca env))
  | Ast.StructLit (name, fields) ->
      let codes =
        Array.of_list
          (List.map (fun (f, e) -> (f, compile_expr ctx scope e)) fields)
      in
      fun env ->
        let n = Array.length codes in
        let rec go i =
          if i >= n then []
          else
            let f, c = codes.(i) in
            let v = c env in
            (f, v) :: go (i + 1)
        in
        Value.Struct (name, go 0)
  | Ast.ListLit es ->
      let codes = Array.of_list (List.map (compile_expr ctx scope) es) in
      fun env -> Value.List (eval_args codes env)

and compile_binop ctx scope op a b : ecode =
  let ca = compile_expr ctx scope a in
  let cb = compile_expr ctx scope b in
  match op with
  | Ast.And -> (
      fun env ->
        match ca env with
        | Value.Bool false -> Value.Bool false
        | Value.Bool true -> (
            match cb env with
            | Value.Bool _ as r -> r
            | v -> fail "'and' on %s" (Value.to_string v))
        | Value.FilterV fa ->
            Value.FilterV (Farm_net.Filter.And (fa, Value.as_filter (cb env)))
        | v -> fail "'and' on %s" (Value.to_string v))
  | Ast.Or -> (
      fun env ->
        match ca env with
        | Value.Bool true -> Value.Bool true
        | Value.Bool false -> (
            match cb env with
            | Value.Bool _ as r -> r
            | v -> fail "'or' on %s" (Value.to_string v))
        | Value.FilterV fa ->
            Value.FilterV (Farm_net.Filter.Or (fa, Value.as_filter (cb env)))
        | v -> fail "'or' on %s" (Value.to_string v))
  | Ast.Eq ->
      fun env ->
        let va = ca env in
        let vb = cb env in
        Value.Bool (Value.equal va vb)
  | Ast.Neq ->
      fun env ->
        let va = ca env in
        let vb = cb env in
        Value.Bool (not (Value.equal va vb))
  | Ast.Le ->
      fun env ->
        let x = Value.as_num (ca env) in
        let y = Value.as_num (cb env) in
        Value.Bool (x <= y)
  | Ast.Ge ->
      fun env ->
        let x = Value.as_num (ca env) in
        let y = Value.as_num (cb env) in
        Value.Bool (x >= y)
  | Ast.Lt ->
      fun env ->
        let x = Value.as_num (ca env) in
        let y = Value.as_num (cb env) in
        Value.Bool (x < y)
  | Ast.Gt ->
      fun env ->
        let x = Value.as_num (ca env) in
        let y = Value.as_num (cb env) in
        Value.Bool (x > y)
  | Ast.Add -> (
      fun env ->
        match (ca env, cb env) with
        | Value.Str x, Value.Str y -> Value.Str (x ^ y)
        | va, vb -> num (Value.as_num va +. Value.as_num vb))
  | Ast.Sub ->
      fun env ->
        let va = ca env in
        let vb = cb env in
        num (Value.as_num va -. Value.as_num vb)
  | Ast.Mul ->
      fun env ->
        let va = ca env in
        let vb = cb env in
        num (Value.as_num va *. Value.as_num vb)
  | Ast.Div ->
      fun env ->
        let va = ca env in
        let vb = cb env in
        let x = Value.as_num va and y = Value.as_num vb in
        if y = 0. then fail "division by zero" else num (x /. y)

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let nop_stmt : scode = fun _ -> ()

let seq (codes : scode list) : scode =
  match codes with
  | [] -> nop_stmt
  | [ c ] -> c
  | codes ->
      let arr = Array.of_list codes in
      fun env ->
        for i = 0 to Array.length arr - 1 do
          arr.(i) env
        done

let rec compile_stmt ctx scope (s : Ast.stmt) : scode =
  match s.Ast.sk with
  | Ast.Decl (typ, n, init) -> (
      let lay =
        match scope.sc_frame with
        | Some l -> l
        | None -> fail "internal: declaration outside a frame"
      in
      let slot = Hashtbl.find lay.l_slots n in
      match init with
      | Some e ->
          let c = compile_expr ctx scope e in
          fun env -> env.frame.(slot) <- c env
      | None -> fun env -> env.frame.(slot) <- Value.default_of_typ typ)
  | Ast.Assign (n, e) ->
      let c = compile_expr ctx scope e in
      let w = compile_assign_target ctx scope n in
      fun env -> w env (c env)
  | Ast.Transit e -> (
      match e with
      | Ast.Var s | Ast.String s ->
          let target = Some s in
          fun env -> env.pending <- target
      | e ->
          let c = compile_expr ctx scope e in
          fun env -> env.pending <- Some (Value.as_str (c env)))
  | Ast.If (c, th, el) ->
      let cc = compile_expr ctx scope c in
      let cth = compile_stmts ctx scope th in
      let cel = compile_stmts ctx scope el in
      fun env -> if Value.truthy (cc env) then cth env else cel env
  | Ast.While (c, body) ->
      let cc = compile_expr ctx scope c in
      let cbody = compile_stmts ctx scope body in
      fun env ->
        let fuel = ref 1_000_000 in
        while Value.truthy (cc env) do
          decr fuel;
          if !fuel <= 0 then fail "while loop exceeded iteration budget";
          cbody env
        done
  | Ast.Return None -> fun _ -> raise (Host.Return_exc Value.Unit)
  | Ast.Return (Some e) ->
      let c = compile_expr ctx scope e in
      fun env -> raise (Host.Return_exc (c env))
  | Ast.Send (e, dest) -> (
      let ce = compile_expr ctx scope e in
      match dest with
      | Ast.Harvester -> fun env -> env.host.h_send Host.To_harvester (ce env)
      | Ast.Machine (m, None) ->
          let tgt = Host.To_machine (m, None) in
          fun env -> env.host.h_send tgt (ce env)
      | Ast.Machine (m, Some d) ->
          let cd = compile_expr ctx scope d in
          fun env ->
            let tgt =
              Host.To_machine (m, Some (int_of_float (Value.as_num (cd env))))
            in
            env.host.h_send tgt (ce env))
  | Ast.ExprStmt e ->
      let c = compile_expr ctx scope e in
      fun env -> ignore (c env)

and compile_stmts ctx scope stmts =
  seq (List.map (compile_stmt ctx scope) stmts)

(* ------------------------------------------------------------------ *)
(* Events, states, functions                                           *)
(* ------------------------------------------------------------------ *)

(* Same trigger keys as the interpreter; used to apply the
   state-overrides-machine rule at compile time. *)
let trigger_key = function
  | Ast.On_enter -> "enter"
  | Ast.On_exit -> "exit"
  | Ast.On_realloc -> "realloc"
  | Ast.On_trigger_var (y, _) -> "var:" ^ y
  | Ast.On_recv (ty, _, d) ->
      let d =
        match d with
        | Ast.Harvester -> "harvester"
        | Ast.Machine (m, _) -> m
      in
      Printf.sprintf "recv:%s:%s" (Ast.typ_to_string ty) d

(* Deterministic plan snapshots of the mutable layout tables. *)
let tbl_to_slots tbl =
  Hashtbl.fold (fun name i acc -> (name, i) :: acc) tbl []
  |> List.sort (fun (_, a) (_, b) -> compare a b)

let vframe_of_layout lay =
  { vf_slots = tbl_to_slots lay.l_slots;
    vf_bound =
      Hashtbl.fold (fun n () acc -> n :: acc) lay.l_bound []
      |> List.sort compare;
    vf_size = lay.l_size }

let compile_event ctx state_tbl (ev : Ast.event) : event_c * vevent =
  let binding_name =
    match ev.trigger with
    | Ast.On_trigger_var (_, Some x) -> Some x
    | Ast.On_recv (_, n, _) -> Some n
    | _ -> None
  in
  let lay = new_layout () in
  (match binding_name with
  | Some n -> ignore (layout_add_bound lay n)
  | None -> ());
  collect_decls lay ev.body;
  let scope = { sc_frame = Some lay; sc_locals = Some state_tbl } in
  let body = compile_stmts ctx scope ev.body in
  let binding =
    match binding_name with
    | Some n -> Some (n, Hashtbl.find lay.l_slots n)
    | None -> None
  in
  ( { ev_frame_size = lay.l_size;
      ev_binding = Option.map snd binding;
      ev_body = body },
    { ve_frame = vframe_of_layout lay;
      ve_binding = binding;
      ve_locals = Some (tbl_to_slots state_tbl);
      ve_body = ev.body } )

(* Events applicable in a state for a key: state events override machine
   events when at least one state event matches. *)
let events_for (m : Ast.machine) (st : Ast.state_decl) key =
  let matches (e : Ast.event) = trigger_key e.trigger = key in
  let se = List.filter matches st.sevents in
  if se <> [] then se else List.filter matches m.mevents

let compile_state ctx (m : Ast.machine) trig_names (st : Ast.state_decl) :
    state_c * vstate =
  (* state-local slot layout (duplicate declarations share a slot, last
     initializer wins — hashtable-replace semantics) *)
  let local_tbl = Hashtbl.create 8 in
  let n_locals = ref 0 in
  let local_inits =
    List.map
      (fun (v : Ast.var_decl) ->
        let slot =
          match Hashtbl.find_opt local_tbl v.vname with
          | Some i -> i
          | None ->
              let i = !n_locals in
              incr n_locals;
              Hashtbl.replace local_tbl v.vname i;
              i
        in
        let init_scope = { sc_frame = None; sc_locals = None } in
        let code =
          match v.vinit with
          | Some e -> compile_expr ctx init_scope e
          | None ->
              let typ = v.vtyp in
              fun _ -> Value.default_of_typ typ
        in
        let vinit =
          match v.vinit with Some e -> Vexpr e | None -> Vdefault v.vtyp
        in
        ((slot, code), (slot, v.vname, vinit)))
      st.slocals
  in
  let local_names = Array.make !n_locals "" in
  Hashtbl.iter (fun name i -> local_names.(i) <- name) local_tbl;
  let compile_for key =
    List.map (compile_event ctx local_tbl) (events_for m st key)
  in
  let recv =
    List.filter_map
      (fun (ev : Ast.event) ->
        match ev.trigger with
        | Ast.On_recv (ty, _, dest) ->
            let ec, vc = compile_event ctx local_tbl ev in
            Some ({ rc_typ = ty; rc_dest = dest; rc_ev = ec }, (ty, dest, vc))
        | _ -> None)
      (st.sevents @ m.mevents)
  in
  let enter = compile_for "enter" in
  let exit_ = compile_for "exit" in
  let realloc = compile_for "realloc" in
  let triggers =
    Array.map (fun name -> (name, compile_for ("var:" ^ name))) trig_names
  in
  ( { st_name = st.sname;
      st_local_names = local_names;
      st_local_inits = Array.of_list (List.map fst local_inits);
      st_enter = Array.of_list (List.map fst enter);
      st_exit = Array.of_list (List.map fst exit_);
      st_realloc = Array.of_list (List.map fst realloc);
      st_triggers = Array.map (fun (_, evs) -> Array.of_list (List.map fst evs)) triggers;
      st_recv = Array.of_list (List.map fst recv) },
    { vs_name = st.sname;
      vs_local_names = Array.copy local_names;
      vs_local_inits = List.map snd local_inits;
      vs_enter = List.map snd enter;
      vs_exit = List.map snd exit_;
      vs_realloc = List.map snd realloc;
      vs_triggers =
        Array.to_list
          (Array.map (fun (name, evs) -> (name, List.map snd evs)) triggers);
      vs_recv = List.map snd recv } )

let compile_func ctx (fd : Ast.func_decl) : func_c * vfunc =
  let lay = new_layout () in
  let param_slots =
    Array.of_list
      (List.map (fun (_, n) -> layout_add_bound lay n) fd.fparams)
  in
  collect_decls lay fd.fbody;
  (* function bodies resolve non-frame names dynamically: the state the
     machine occupies at call time is unknown *)
  let scope = { sc_frame = Some lay; sc_locals = None } in
  let body = compile_stmts ctx scope fd.fbody in
  ( { fn_name = fd.fname;
      fn_nparams = List.length fd.fparams;
      fn_param_slots = param_slots;
      fn_frame_size = lay.l_size;
      fn_body = body },
    { vfn_params =
        List.map2
          (fun (_, n) slot -> (n, slot))
          fd.fparams
          (Array.to_list param_slots);
      vfn_frame = vframe_of_layout lay;
      vfn_body = fd.fbody } )

(* ------------------------------------------------------------------ *)
(* Machine compilation                                                 *)
(* ------------------------------------------------------------------ *)

(* Trigger names a machine can react to: declared trigger variables plus
   any name referenced by a [when] event (firing any other name is a
   no-op, as in the interpreter). *)
let trigger_names (m : Ast.machine) =
  let seen = Hashtbl.create 8 in
  let order = ref [] in
  let add name =
    if not (Hashtbl.mem seen name) then begin
      Hashtbl.replace seen name ();
      order := name :: !order
    end
  in
  List.iter (fun (td : Ast.trig_decl) -> add td.tname) m.mtrigs;
  let scan_event (e : Ast.event) =
    match e.trigger with
    | Ast.On_trigger_var (y, _) -> add y
    | _ -> ()
  in
  List.iter scan_event m.mevents;
  List.iter
    (fun (st : Ast.state_decl) -> List.iter scan_event st.sevents)
    m.states;
  Array.of_list (List.rev !order)

let compile ~(program : Ast.program) ~(machine : string) : t =
  let m =
    match
      List.find_opt
        (fun (m : Ast.machine) -> m.mname = machine)
        program.machines
    with
    | Some m ->
        if m.extends <> None then
          fail "machine %s still has unresolved inheritance; run Typecheck.check"
            machine
        else m
    | None -> fail "program has no machine %s" machine
  in
  if m.states = [] then fail "machine %s has no states" machine;
  (* global slot layout: machine variables, then trigger variables
     (duplicates share a slot, later initializer wins) *)
  let global_slots = Hashtbl.create 16 in
  let n_globals = ref 0 in
  let slot_of name =
    match Hashtbl.find_opt global_slots name with
    | Some i -> i
    | None ->
        let i = !n_globals in
        incr n_globals;
        Hashtbl.replace global_slots name i;
        i
  in
  let trig_hook = Hashtbl.create 4 in
  List.iter
    (fun (td : Ast.trig_decl) -> Hashtbl.replace trig_hook td.tname td.ttyp)
    m.mtrigs;
  let ctx =
    { cx_global_slots = global_slots;
      cx_trig_hook = trig_hook;
      cx_calls = [];
      cx_n_calls = 0 }
  in
  let init_scope = { sc_frame = None; sc_locals = None } in
  let var_inits =
    List.map
      (fun (v : Ast.var_decl) ->
        let slot = slot_of v.vname in
        let code =
          match v.vinit with
          | Some e -> compile_expr ctx init_scope e
          | None ->
              let typ = v.vtyp in
              fun _ -> Value.default_of_typ typ
        in
        let vinit =
          match v.vinit with Some e -> Vexpr e | None -> Vdefault v.vtyp
        in
        ((slot, v.vname, v.is_external, code), (slot, v.vname, v.is_external, vinit)))
      m.mvars
  in
  let trig_inits =
    List.map
      (fun (td : Ast.trig_decl) ->
        let slot = slot_of td.tname in
        let code =
          match td.tinit with
          | Some e -> compile_expr ctx init_scope e
          | None -> fun _ -> Value.Unit
        in
        let vinit = match td.tinit with Some e -> Vexpr e | None -> Vunit in
        ((slot, td.tname, false, code), (slot, td.tname, false, vinit)))
      m.mtrigs
  in
  let global_names = Array.make !n_globals "" in
  Hashtbl.iter (fun name i -> global_names.(i) <- name) global_slots;
  let trig_names = trigger_names m in
  let trig_ids = Hashtbl.create 8 in
  Array.iteri (fun i name -> Hashtbl.replace trig_ids name i) trig_names;
  let funcs = Hashtbl.create 8 in
  let vfuncs =
    List.map
      (fun (fd : Ast.func_decl) ->
        let fc, vf = compile_func ctx fd in
        Hashtbl.replace funcs fd.fname fc;
        (fd.fname, vf))
      program.funcs
  in
  let compiled_states = List.map (compile_state ctx m trig_names) m.states in
  let states = Array.of_list (List.map fst compiled_states) in
  let state_ids = Hashtbl.create 8 in
  Array.iteri (fun i st -> Hashtbl.replace state_ids st.st_name i) states;
  let plan =
    { v_machine = m.mname;
      v_initial = (List.hd m.states).sname;
      v_global_slots = tbl_to_slots global_slots;
      v_global_inits = List.map snd var_inits @ List.map snd trig_inits;
      v_trig_hooks =
        Hashtbl.fold (fun n tt acc -> (n, tt) :: acc) trig_hook []
        |> List.sort compare;
      v_trig_names = Array.to_list trig_names;
      v_states = List.map snd compiled_states;
      v_funcs = vfuncs }
  in
  { c_machine = m;
    c_n_globals = !n_globals;
    c_global_names = global_names;
    c_global_slots = global_slots;
    c_global_inits = Array.of_list (List.map fst var_inits @ List.map fst trig_inits);
    c_states = states;
    c_state_ids = state_ids;
    c_trig_ids = trig_ids;
    c_n_trigs = Array.length trig_names;
    c_funcs = funcs;
    c_call_specs = Array.of_list (List.rev ctx.cx_calls);
    c_plan = plan }
