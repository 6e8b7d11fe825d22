open Host

(* [return] unwinds to the enclosing function call or event handler.  The
   compiled engine leaves the value in a slot instead (see [Compile]);
   this engine keeps the plain form as the reference. *)
exception Return_exc of Value.t

type t = {
  m : Ast.machine;
  funcs : (string, Ast.func_decl) Hashtbl.t;
  host : host;
  globals : (string, Value.t) Hashtbl.t;
  trigger_types : (string, Ast.trigger_type) Hashtbl.t;
  mutable state : string;
  mutable locals : (string, Value.t) Hashtbl.t;
  mutable pending_transit : string option;
  mutable started : bool;
}

(* ------------------------------------------------------------------ *)
(* Environments                                                        *)
(* ------------------------------------------------------------------ *)

(* A scope chain: event-local frame -> state locals -> globals. *)
type frame = (string, Value.t) Hashtbl.t

let lookup t (frames : frame list) name =
  let rec go = function
    | [] -> None
    | f :: rest -> (
        match Hashtbl.find_opt f name with
        | Some v -> Some v
        | None -> go rest)
  in
  go (frames @ [ t.locals; t.globals ])

let assign t (frames : frame list) name v =
  let rec go = function
    | [] ->
        if Hashtbl.mem t.locals name then Hashtbl.replace t.locals name v
        else if Hashtbl.mem t.globals name then begin
          Hashtbl.replace t.globals name v;
          (* reassigning a trigger variable adjusts its schedule *)
          match Hashtbl.find_opt t.trigger_types name with
          | Some tt -> t.host.h_set_trigger name tt v
          | None -> ()
        end
        else fail "assignment to unbound variable %s" name
    | f :: rest ->
        if Hashtbl.mem f name then Hashtbl.replace f name v else go rest
  in
  go frames

(* ------------------------------------------------------------------ *)
(* Expression evaluation                                               *)
(* ------------------------------------------------------------------ *)

let num f = Value.Num f

let rec eval t frames (e : Ast.expr) : Value.t =
  match e with
  | Ast.Bool b -> Value.Bool b
  | Ast.Int i -> num (float_of_int i)
  | Ast.Float f -> num f
  | Ast.String s -> Value.Str s
  | Ast.AnyLit -> Value.FilterV (Farm_net.Filter.atom Farm_net.Filter.Any)
  | Ast.Var v -> (
      match lookup t frames v with
      | Some x -> x
      | None -> fail "unbound variable %s" v)
  | Ast.Field (b, f) -> Value.field (eval t frames b) f
  | Ast.Call (f, args) -> call t frames f args
  | Ast.Unop (op, a) -> Semantics.unop op (eval t frames a)
  | Ast.Binop (op, a, b) -> binop t frames op a b
  | Ast.FilterAtom (head, arg) ->
      Value.FilterV (Builtins.filter_atom_value head (eval t frames arg))
  | Ast.StructLit (name, fields) ->
      Value.Struct
        (name, List.map (fun (f, e) -> (f, eval t frames e)) fields)
  | Ast.ListLit es -> Value.List (List.map (eval t frames) es)

(* Operands run left to right; each ordering operand converts as soon as
   it is evaluated. *)
and binop t frames op a b =
  match op with
  | Ast.And | Ast.Or -> (
      let va = eval t frames a in
      match Semantics.logic_left op va with
      | Some r -> r
      | None -> Semantics.logic_right op va (eval t frames b))
  | Ast.Le | Ast.Ge | Ast.Lt | Ast.Gt ->
      let x = Value.as_num (eval t frames a) in
      let y = Value.as_num (eval t frames b) in
      Value.of_bool (Semantics.order op x y)
  | _ ->
      let va = eval t frames a in
      let vb = eval t frames b in
      Semantics.binop op va vb

and call t frames fname args =
  let argv = List.map (eval t frames) args in
  match t.host.h_builtin fname with
  | Some f -> f argv
  | None -> (
      match Hashtbl.find_opt t.funcs fname with
      | Some fd -> call_almanac t fd argv
      | None -> (
          match Builtins.find fname with
          | Some { runs = Builtins.Pure e; _ } -> e.call argv
          | Some { runs = Builtins.Engine f; _ } -> f t.host argv
          | Some { runs = Builtins.Soil; _ } | None ->
              fail "unknown function %s" fname))

and call_almanac t (fd : Ast.func_decl) argv =
  if List.length fd.fparams <> List.length argv then
    fail "%s expects %d arguments, got %d" fd.fname (List.length fd.fparams)
      (List.length argv);
  let frame = Hashtbl.create 8 in
  List.iter2 (fun (_, n) v -> Hashtbl.replace frame n v) fd.fparams argv;
  try
    exec_stmts t [ frame ] fd.fbody;
    Value.Unit
  with Return_exc v -> v

(* ------------------------------------------------------------------ *)
(* Statement execution                                                 *)
(* ------------------------------------------------------------------ *)

and exec_stmts t frames stmts = List.iter (exec_stmt t frames) stmts

and exec_stmt t frames (s : Ast.stmt) =
  match s.Ast.sk with
  | Ast.Decl (typ, n, init) ->
      let v =
        match init with
        | Some e -> eval t frames e
        | None -> Value.default_of_typ typ
      in
      (match frames with
      | f :: _ -> Hashtbl.replace f n v
      | [] -> Hashtbl.replace t.locals n v)
  | Ast.Assign (n, e) -> assign t frames n (eval t frames e)
  | Ast.Transit e ->
      let target =
        match e with
        | Ast.Var s | Ast.String s -> s
        | e -> Value.as_str (eval t frames e)
      in
      t.pending_transit <- Some target
  | Ast.If (c, th, el) ->
      if Value.truthy (eval t frames c) then exec_stmts t frames th
      else exec_stmts t frames el
  | Ast.While (c, body) ->
      let fuel = ref 1_000_000 in
      while Value.truthy (eval t frames c) do
        decr fuel;
        if !fuel <= 0 then fail "while loop exceeded iteration budget";
        exec_stmts t frames body
      done
  | Ast.Return None -> raise (Return_exc Value.Unit)
  | Ast.Return (Some e) -> raise (Return_exc (eval t frames e))
  | Ast.Send (e, dest) ->
      let target =
        match dest with
        | Ast.Harvester -> To_harvester
        | Ast.Machine (m, None) -> To_machine (m, None)
        | Ast.Machine (m, Some d) ->
            To_machine
              (m, Some (int_of_float (Value.as_num (eval t frames d))))
      in
      t.host.h_send target (eval t frames e)
  | Ast.ExprStmt e -> ignore (eval t frames e)

(* ------------------------------------------------------------------ *)
(* Event dispatch                                                      *)
(* ------------------------------------------------------------------ *)

let find_state t name =
  match
    List.find_opt (fun (s : Ast.state_decl) -> s.sname = name) t.m.states
  with
  | Some s -> s
  | None -> fail "machine %s has no state %s" t.m.mname name

let current_events t key = Semantics.events_for t.m (find_state t t.state) key

let run_event t (ev : Ast.event) bindings =
  let frame = Hashtbl.create 4 in
  List.iter (fun (n, v) -> Hashtbl.replace frame n v) bindings;
  (try exec_stmts t [ frame ] ev.body with Return_exc _ -> ());
  ()

let rec apply_pending_transit t =
  match t.pending_transit with
  | None -> ()
  | Some target ->
      t.pending_transit <- None;
      if target <> t.state then begin
        let old_state = t.state in
        (* exit events of the old state *)
        List.iter
          (fun ev -> run_event t ev [])
          (current_events t Semantics.Exit);
        t.state <- target;
        (* fresh locals for the new state *)
        let st = find_state t target in
        let locals = Hashtbl.create 8 in
        List.iter
          (fun (v : Ast.var_decl) ->
            let value =
              match v.vinit with
              | Some e ->
                  (* initializers may read machine variables *)
                  eval t [] e
              | None -> Value.default_of_typ v.vtyp
            in
            Hashtbl.replace locals v.vname value)
          st.slocals;
        t.locals <- locals;
        t.host.h_on_transit old_state target;
        List.iter
          (fun ev -> run_event t ev [])
          (current_events t Semantics.Enter);
        (* an enter handler can itself transit *)
        apply_pending_transit t
      end

let dispatch t key bindings =
  let evs = current_events t key in
  List.iter (fun ev -> run_event t ev bindings) evs;
  apply_pending_transit t;
  evs <> []

(* ------------------------------------------------------------------ *)
(* Public API                                                          *)
(* ------------------------------------------------------------------ *)

let create ?(externals = []) ~program ~machine host =
  let machines = (program : Ast.program).machines in
  let m =
    match
      List.find_opt (fun (m : Ast.machine) -> m.mname = machine) machines
    with
    | Some m ->
        if m.extends <> None then
          fail "machine %s still has unresolved inheritance; run Typecheck.check"
            machine
        else m
    | None -> fail "program has no machine %s" machine
  in
  let funcs = Hashtbl.create 8 in
  List.iter
    (fun (f : Ast.func_decl) -> Hashtbl.replace funcs f.fname f)
    program.funcs;
  let t =
    { m; funcs; host; globals = Hashtbl.create 16;
      trigger_types = Hashtbl.create 4;
      state =
        (match m.states with
        | s :: _ -> s.sname
        | [] -> fail "machine %s has no states" machine);
      locals = Hashtbl.create 8; pending_transit = None; started = false }
  in
  (* machine variables *)
  List.iter
    (fun (v : Ast.var_decl) ->
      let value =
        match List.assoc_opt v.vname externals with
        | Some ext when v.is_external -> ext
        | Some _ | None -> (
            match v.vinit with
            | Some e -> eval t [] e
            | None -> Value.default_of_typ v.vtyp)
      in
      Hashtbl.replace t.globals v.vname value)
    m.mvars;
  (* trigger variables: remember their type; the runtime reads the machine
     AST directly for scheduling, the interpreter only forwards runtime
     re-assignments *)
  List.iter
    (fun (td : Ast.trig_decl) ->
      Hashtbl.replace t.trigger_types td.tname td.ttyp;
      let value =
        match td.tinit with
        | Some e -> eval t [] e
        | None -> Value.Unit
      in
      Hashtbl.replace t.globals td.tname value)
    m.mtrigs;
  t

let machine t = t.m
let current_state t = t.state

let var t name =
  match Hashtbl.find_opt t.locals name with
  | Some v -> Some v
  | None -> Hashtbl.find_opt t.globals name

let start t =
  if not t.started then begin
    t.started <- true;
    (* initialize the first state's locals *)
    let st = find_state t t.state in
    List.iter
      (fun (v : Ast.var_decl) ->
        let value =
          match v.vinit with
          | Some e -> eval t [] e
          | None -> Value.default_of_typ v.vtyp
        in
        Hashtbl.replace t.locals v.vname value)
      st.slocals;
    ignore (dispatch t Semantics.Enter [])
  end

let fire_trigger t name value =
  t.host.h_trace name t.state;
  let evs = current_events t (Semantics.Var name) in
  List.iter
    (fun (ev : Ast.event) ->
      let bindings =
        match ev.trigger with
        | Ast.On_trigger_var (_, Some x) -> [ (x, value) ]
        | _ -> []
      in
      run_event t ev bindings)
    evs;
  apply_pending_transit t

(* The reference engine has no per-trigger precomputation; a prepared
   trigger is just a partial application. *)
let prepare_trigger t name = fun value -> fire_trigger t name value

let deliver t ~from value =
  match
    List.find_opt
      (fun (ty, dest, _) -> Semantics.accepts ty dest from value)
      (Semantics.recv_arms t.m (find_state t t.state))
  with
  | None -> false
  | Some (_, _, ev) ->
      let bindings =
        match ev.trigger with
        | Ast.On_recv (_, n, _) -> [ (n, value) ]
        | _ -> []
      in
      run_event t ev bindings;
      apply_pending_transit t;
      true

let realloc t = ignore (dispatch t Semantics.Realloc [])

let snapshot t =
  let sorted = List.sort (fun (a, _) (b, _) -> String.compare a b) in
  let vars =
    sorted (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.globals [])
    @ sorted
        (Hashtbl.fold (fun k v acc -> ("state." ^ k, v) :: acc) t.locals [])
  in
  (vars, t.state)

let restore t ~vars ~state =
  t.state <- state;
  t.locals <- Hashtbl.create 8;
  List.iter
    (fun (k, v) ->
      match String.index_opt k '.' with
      | Some i when String.sub k 0 i = "state" ->
          Hashtbl.replace t.locals
            (String.sub k (i + 1) (String.length k - i - 1))
            v
      | _ -> Hashtbl.replace t.globals k v)
    vars;
  t.started <- true

let call_function t name argv =
  match Hashtbl.find_opt t.funcs name with
  | Some fd -> call_almanac t fd argv
  | None -> fail "program has no function %s" name
