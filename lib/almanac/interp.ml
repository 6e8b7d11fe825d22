(* The host interface and the pure built-ins live in {!Host} and
   {!Builtins}, shared with the compiled engine; re-export them here so
   existing users of [Interp.host] / [Interp.Runtime_error] keep working. *)

exception Runtime_error = Host.Runtime_error

let fail = Host.fail

type source = Host.source = From_harvester | From_machine of string

type target = Host.target = To_harvester | To_machine of string * int option

type host = Host.host = {
  h_now : unit -> float;
  h_resources : unit -> float array;
  h_send : target -> Value.t -> unit;
  h_set_trigger : string -> Ast.trigger_type -> Value.t -> unit;
  h_builtin : string -> (Value.t list -> Value.t) option;
  h_on_transit : string -> string -> unit;
  h_log : string -> unit;
  h_trace : (string -> string -> unit) option;
}

let null_host = Host.null_host

type t = {
  m : Ast.machine;
  funcs : (string, Ast.func_decl) Hashtbl.t;
  host : host;
  builtins : (string, Value.t list -> Value.t) Hashtbl.t;
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

exception Return_exc = Host.Return_exc

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
  | Ast.Unop (Ast.Not, a) -> (
      match eval t frames a with
      | Value.Bool b -> Value.Bool (not b)
      | Value.FilterV f -> Value.FilterV (Farm_net.Filter.Not f)
      | v -> fail "'not' applied to %s" (Value.to_string v))
  | Ast.Unop (Ast.Neg, a) -> num (-.Value.as_num (eval t frames a))
  | Ast.Binop (op, a, b) -> binop t frames op a b
  | Ast.FilterAtom (head, arg) ->
      Value.FilterV (Builtins.filter_atom_value head (eval t frames arg))
  | Ast.StructLit (name, fields) ->
      Value.Struct
        (name, List.map (fun (f, e) -> (f, eval t frames e)) fields)
  | Ast.ListLit es -> Value.List (List.map (eval t frames) es)

and binop t frames op a b =
  match op with
  | Ast.And -> (
      match eval t frames a with
      | Value.Bool false -> Value.Bool false
      | Value.Bool true -> (
          match eval t frames b with
          | Value.Bool _ as r -> r
          | v -> fail "'and' on %s" (Value.to_string v))
      | Value.FilterV fa ->
          Value.FilterV
            (Farm_net.Filter.And (fa, Value.as_filter (eval t frames b)))
      | v -> fail "'and' on %s" (Value.to_string v))
  | Ast.Or -> (
      match eval t frames a with
      | Value.Bool true -> Value.Bool true
      | Value.Bool false -> (
          match eval t frames b with
          | Value.Bool _ as r -> r
          | v -> fail "'or' on %s" (Value.to_string v))
      | Value.FilterV fa ->
          Value.FilterV
            (Farm_net.Filter.Or (fa, Value.as_filter (eval t frames b)))
      | v -> fail "'or' on %s" (Value.to_string v))
  | Ast.Eq | Ast.Neq ->
      (* operands left to right, as everywhere else (OCaml evaluates
         function arguments right to left) *)
      let va = eval t frames a in
      let vb = eval t frames b in
      let eq = Value.equal va vb in
      Value.Bool (if op = Ast.Eq then eq else not eq)
  | Ast.Le | Ast.Ge | Ast.Lt | Ast.Gt ->
      let x = Value.as_num (eval t frames a)
      and y = Value.as_num (eval t frames b) in
      Value.Bool
        (match op with
        | Ast.Le -> x <= y
        | Ast.Ge -> x >= y
        | Ast.Lt -> x < y
        | Ast.Gt -> x > y
        | _ -> assert false)
  | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div -> (
      match (op, eval t frames a, eval t frames b) with
      | Ast.Add, Value.Str x, Value.Str y -> Value.Str (x ^ y)
      | op, va, vb ->
      let x = Value.as_num va and y = Value.as_num vb in
      num
        (match op with
        | Ast.Add -> x +. y
        | Ast.Sub -> x -. y
        | Ast.Mul -> x *. y
        | Ast.Div ->
            if y = 0. then fail "division by zero" else x /. y
        | _ -> assert false))

and call t frames fname args =
  let argv = List.map (eval t frames) args in
  match t.host.h_builtin fname with
  | Some f -> f argv
  | None -> (
      match Hashtbl.find_opt t.funcs fname with
      | Some fd -> call_almanac t fd argv
      | None -> (
          match Hashtbl.find_opt t.builtins fname with
          | Some f -> f argv
          | None -> fail "unknown function %s" fname))

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

(* Trigger keys used to let state-level events override machine-level
   ones. *)
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

(* Events applicable in the current state for a key: state events plus
   non-overridden machine events. *)
let applicable_events t key =
  let st = find_state t t.state in
  let state_evs =
    List.filter (fun (e : Ast.event) -> trigger_key e.trigger = key) st.sevents
  in
  let machine_evs =
    List.filter (fun (e : Ast.event) -> trigger_key e.trigger = key) t.m.mevents
  in
  if state_evs <> [] then state_evs else machine_evs

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
          (applicable_events t "exit");
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
          (applicable_events t "enter");
        (* an enter handler can itself transit *)
        apply_pending_transit t
      end

let dispatch t key bindings =
  let evs = applicable_events t key in
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
    { m; funcs; host; builtins = Builtins.table host;
      globals = Hashtbl.create 16;
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
    ignore (dispatch t "enter" [])
  end

let fire_trigger t name value =
  (match t.host.h_trace with None -> () | Some f -> f name t.state);
  let key = "var:" ^ name in
  let evs = applicable_events t key in
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

let value_matches_typ (v : Value.t) (ty : Ast.typ) =
  match (v, ty) with
  | Value.Num _, (Ast.Tint | Ast.Tlong | Ast.Tfloat) -> true
  | Value.Bool _, Ast.Tbool -> true
  | Value.Str _, Ast.Tstring -> true
  | Value.List _, Ast.Tlist -> true
  | Value.Packet _, Ast.Tpacket -> true
  | Value.Action _, Ast.Taction -> true
  | Value.FilterV _, Ast.Tfilter -> true
  | Value.Stats _, Ast.Tstats -> true
  | Value.Struct ("Rule", _), Ast.Trule -> true
  | Value.Unit, Ast.Tunit -> true
  | _ -> false

let deliver t ~from value =
  (* find recv events whose source pattern and value type match *)
  let st = find_state t t.state in
  let candidates = st.sevents @ t.m.mevents in
  let matching =
    List.filter
      (fun (ev : Ast.event) ->
        match ev.trigger with
        | Ast.On_recv (ty, _, dest) ->
            let src_ok =
              match (dest, from) with
              | Ast.Harvester, From_harvester -> true
              | Ast.Machine (m, _), From_machine m' -> m = m'
              | Ast.Harvester, From_machine _
              | Ast.Machine _, From_harvester ->
                  false
            in
            src_ok && value_matches_typ value ty
        | _ -> false)
      candidates
  in
  match matching with
  | [] -> false
  | ev :: _ ->
      let bindings =
        match ev.trigger with
        | Ast.On_recv (_, n, _) -> [ (n, value) ]
        | _ -> []
      in
      run_event t ev bindings;
      apply_pending_transit t;
      true

let realloc t = ignore (dispatch t "realloc" [])

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
