(** Execution engine for compiled Almanac machines ({!Compile}).

    Mirrors the {!Interp} API so the two engines are interchangeable
    behind {!Engine.S}; semantics are the interpreter's (the differential
    suite in [test/test_almanac.ml] checks observational equivalence over
    the whole task catalog and over generated programs), and every value
    this module hands out is [Value.plain]: no packed list leaves it.  Per event
    firing this engine does an array index into the (state, trigger)
    dispatch table and runs pre-compiled closures — no string hashing, no
    scope-chain walk.  Slot values go through {!Compile.get} /
    {!Compile.set}, which know where a typed slot keeps its number. *)

let fail = Host.fail

let absent = Compile.absent

type t = {
  c : Compile.t;
  env : Compile.env;
  host : Host.host;
  mutable started : bool;
}

let machine t = t.c.Compile.c_machine
let current_state t = t.c.c_states.(t.env.Compile.state).st_name

(* ------------------------------------------------------------------ *)
(* Function invocation                                                 *)
(* ------------------------------------------------------------------ *)

(* [call_function]: an argument list into a fresh frame (the compiled
   call sites write their arguments directly). *)
let invoke_func (env : Compile.env) (fc : Compile.func_c) argv =
  if List.length argv <> fc.fn_nparams then
    fail "%s expects %d arguments, got %d" fc.fn_name fc.fn_nparams
      (List.length argv);
  let fr = Array.copy fc.fn_frame in
  let nums =
    if fc.fn_nums then Array.create_float (Array.length fr) else Compile.no_nums
  in
  List.iteri (fun i v -> Compile.set fr nums fc.fn_param_slots.(i) v) argv;
  Compile.run_frame env fc.fn_body fr nums

(* ------------------------------------------------------------------ *)
(* Event dispatch                                                      *)
(* ------------------------------------------------------------------ *)

let empty_frame : Value.t array = [||]

let run_event (env : Compile.env) (ec : Compile.event_c) binding =
  let fr =
    if ec.ev_frame_size = 0 then empty_frame else Compile.new_frame ec.ev_frame_size
  in
  let nums =
    if ec.ev_nums then Compile.new_nums ec.ev_frame_size else Compile.no_nums
  in
  (match ec.ev_binding with
  | Some slot -> Compile.set fr nums slot binding
  | None -> ());
  env.frame <- fr;
  env.fnums <- nums;
  match ec.ev_body env with
  | () ->
      (* a handler's [return] ends it and its value goes nowhere *)
      if env.ret != absent then env.ret <- absent
  | exception e ->
      env.ret <- absent;
      raise e

let run_events env evs binding =
  for i = 0 to Array.length evs - 1 do
    run_event env evs.(i) binding
  done

let new_locals (st : Compile.state_c) =
  let n = Array.length st.st_local_names in
  (Array.make n absent, if st.st_nums then Array.create_float n else Compile.no_nums)

let rec apply_pending t =
  match t.env.Compile.pending with
  | None -> ()
  | Some target ->
      t.env.pending <- None;
      let cur = t.c.c_states.(t.env.state) in
      if target <> cur.st_name then begin
        (* exit events of the old state (run before the target is even
           validated, as in the interpreter) *)
        run_events t.env cur.st_exit Value.Unit;
        let tid =
          match Hashtbl.find_opt t.c.c_state_ids target with
          | Some i -> i
          | None ->
              fail "machine %s has no state %s" t.c.c_machine.mname target
        in
        t.env.state <- tid;
        let ns = t.c.c_states.(tid) in
        (* fresh locals, with initializers evaluated against the *old*
           state's locals (env.locals / locals_names are swapped only
           after all initializers ran) *)
        let fresh, fresh_nums = new_locals ns in
        Array.iter
          (fun (slot, init) -> Compile.set fresh fresh_nums slot (init t.env))
          ns.st_local_inits;
        t.env.locals <- fresh;
        t.env.lnums <- fresh_nums;
        t.env.locals_names <- ns.st_local_names;
        t.host.h_on_transit cur.st_name target;
        run_events t.env ns.st_enter Value.Unit;
        (* an enter handler can itself transit *)
        apply_pending t
      end

(* ------------------------------------------------------------------ *)
(* Public API                                                          *)
(* ------------------------------------------------------------------ *)

let create_compiled ?(externals = []) (c : Compile.t) (host : Host.host) =
  let st0 = c.c_states.(0) in
  let locals, lnums = new_locals st0 in
  (* the only per-instance resolution: host builtins and overrides *)
  let calls =
    Array.map
      (fun (fname, static) ->
        match host.h_builtin fname with Some f -> f | None -> static)
      c.c_call_sites
  in
  let env =
    { Compile.host;
      globals = Array.make c.c_n_globals absent;
      gnums = (if c.c_global_nums then Array.create_float c.c_n_globals else Compile.no_nums);
      state = 0;
      locals;
      lnums;
      locals_names = st0.st_local_names;
      frame = empty_frame;
      fnums = Compile.no_nums;
      pending = None;
      ret = absent;
      calls;
      regs = Array.make 2 0.;
      other = Value.Unit;
      hints = Array.make c.c_n_hints 0 }
  in
  (* machine and trigger variables, progressively (earlier initializers
     are visible to later ones) *)
  Array.iter
    (fun (slot, name, is_external, init) ->
      let value =
        match List.assoc_opt name externals with
        | Some ext when is_external -> ext
        | Some _ | None -> init env
      in
      Compile.set env.globals env.gnums slot value)
    c.c_global_inits;
  { c; env; host; started = false }

let create ?externals ~program ~machine host =
  create_compiled ?externals (Compile.compile ~program ~machine) host

let var t name =
  let env = t.env in
  let rec local i =
    if i >= Array.length env.Compile.locals_names then None
    else if String.equal env.locals_names.(i) name && env.locals.(i) != absent
    then Some (Value.plain (Compile.get env.locals env.lnums i))
    else local (i + 1)
  in
  match local 0 with
  | Some v -> Some v
  | None -> (
      match Hashtbl.find_opt t.c.c_global_slots name with
      | Some g ->
          let v = Compile.get env.globals env.gnums g in
          if v != absent then Some (Value.plain v) else None
      | None -> None)

let start t =
  if not t.started then begin
    t.started <- true;
    (* initialize the first state's locals progressively (earlier locals
       are visible to later initializers) *)
    let st = t.c.c_states.(t.env.Compile.state) in
    Array.iter
      (fun (slot, init) -> Compile.set t.env.locals t.env.lnums slot (init t.env))
      st.st_local_inits;
    run_events t.env st.st_enter Value.Unit;
    apply_pending t
  end

let fire_id t id value =
  let st = t.c.c_states.(t.env.Compile.state) in
  run_events t.env st.st_triggers.(id) value;
  apply_pending t

let trace_fire t name =
  t.host.Host.h_trace name t.c.c_states.(t.env.Compile.state).st_name

let fire_trigger t name value =
  match Hashtbl.find_opt t.c.c_trig_ids name with
  | Some id ->
      trace_fire t name;
      fire_id t id value
  | None -> apply_pending t

let prepare_trigger t name =
  match Hashtbl.find_opt t.c.c_trig_ids name with
  | Some id ->
      fun value ->
        trace_fire t name;
        fire_id t id value
  | None -> fun _ -> apply_pending t

(* The first arm from [i] on, in [st_recv] order, that accepts the
   message runs it.  A top-level loop, not a search with a closure, so a
   message no arm takes allocates nothing. *)
let rec deliver_from t (arms : Compile.recv_c array) i ~from value =
  if i >= Array.length arms then false
  else
    let rc = arms.(i) in
    if Semantics.accepts rc.rc_typ rc.rc_dest from value then begin
      run_event t.env rc.rc_ev value;
      apply_pending t;
      true
    end
    else deliver_from t arms (i + 1) ~from value

let deliver t ~from value =
  deliver_from t t.c.c_states.(t.env.Compile.state).st_recv 0 ~from value

let realloc t =
  let st = t.c.c_states.(t.env.Compile.state) in
  run_events t.env st.st_realloc Value.Unit;
  apply_pending t

let snapshot t =
  let vars = ref [] in
  let env = t.env in
  Array.iteri
    (fun i name ->
      let v = Compile.get env.Compile.globals env.gnums i in
      if v != absent then vars := (name, Value.plain v) :: !vars)
    t.c.c_global_names;
  Array.iteri
    (fun i name ->
      let v = Compile.get env.locals env.lnums i in
      if v != absent then vars := ("state." ^ name, Value.plain v) :: !vars)
    env.locals_names;
  (!vars, current_state t)

let restore t ~vars ~state =
  let sid =
    match Hashtbl.find_opt t.c.c_state_ids state with
    | Some i -> i
    | None -> fail "machine %s has no state %s" t.c.c_machine.mname state
  in
  t.env.Compile.state <- sid;
  let st = t.c.c_states.(sid) in
  let names = st.st_local_names in
  let locals, lnums = new_locals st in
  t.env.locals <- locals;
  t.env.lnums <- lnums;
  t.env.locals_names <- names;
  let local_slot name =
    let rec go i =
      if i >= Array.length names then None
      else if String.equal names.(i) name then Some i
      else go (i + 1)
    in
    go 0
  in
  List.iter
    (fun (k, v) ->
      match String.index_opt k '.' with
      | Some i when String.sub k 0 i = "state" -> (
          let name = String.sub k (i + 1) (String.length k - i - 1) in
          match local_slot name with
          | Some slot -> Compile.set t.env.locals t.env.lnums slot v
          | None -> ())
      | _ -> (
          match Hashtbl.find_opt t.c.c_global_slots k with
          | Some g -> Compile.set t.env.globals t.env.gnums g v
          | None -> ()))
    vars;
  t.started <- true

let call_function t name argv =
  match Hashtbl.find_opt t.c.c_funcs name with
  | Some fc -> Value.plain (invoke_func t.env fc argv)
  | None -> fail "program has no function %s" name
