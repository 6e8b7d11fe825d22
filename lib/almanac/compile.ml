(** Compilation of type-checked Almanac machines to slot-indexed closures.

    The reference interpreter ({!Interp}) resolves every variable through a
    string-keyed scope chain (event frame -> state locals -> machine
    globals) and every call through a string match, on every trigger
    firing.  This pass performs that resolution once:

    - every variable name is mapped to an integer slot in a flat
      [Value.t array] (one array for machine globals, one per-state array
      for state locals, one per-event/function array for the frame); a
      slot declared int/long/float keeps its number unboxed in a parallel
      [float array] (a "typed slot");
    - every expression and statement is compiled into an OCaml closure, in
      one of three modes: a value ([env -> Value.t]), a number written to
      a float register ([env -> bool], see {!ncode}) or a condition
      ([env -> bool]), so arithmetic, comparisons and numeric built-ins
      box nothing;
    - the hottest node shapes get a closure of their own that reads its
      typed frame slots and literals in place, with the general code as
      fallback (see "Fused shapes");
    - every call site is resolved here, in the interpreter's precedence
      order: Almanac functions take their arguments straight into the
      callee's frame and pure built-ins run through list-free entries
      ({!Builtins.fast}); only a host override, looked up per instance by
      {!Exec.create_compiled}, and host built-ins use the list convention;
    - event dispatch tables are precomputed per (state, trigger) pair,
      including the state-overrides-machine rule, so firing a trigger is
      an array index plus closure calls;
    - list shapes keep the stats helpers' loops linear and their lists
      unboxed: in a loop, a run of numbers appended by [v = append(v, e)]
      to a frame list goes into a float buffer in O(1) each until
      something else reads [v], which then holds a packed list
      ([Value.Nums]); [size] reads a packed list's length and [nth] its
      element in place, into the numeric register (see "List shapes").
      A packed list leaves the engine as its [Value.List]
      ([Value.plain]).
    - a [return] raises nothing: it leaves its value in [env.ret]
      ([absent] while none is pending).  A sequence tests the slot before
      each statement and a [while] before its condition, and both stop
      once it is set.  [run_frame] reads and clears the slot when a
      function body ends, [Exec.run_event] clears it when a handler ends,
      and both clear it when the body fails.  {!Interp} still raises its
      own [Return_exc]: the reference engine keeps the plainest reading
      of [return], and the differential holds the two to the same runs.

    The produced code is observationally equivalent to {!Interp} on
    type-checked programs; the dynamic corner cases of the interpreter
    (conditionally-executed declarations, progressive initializer
    visibility, transit initializers reading the *old* state's locals,
    values of another kind in a numeric variable) are reproduced with
    [absent] / [num_tag] sentinels and per-slot checks — see DESIGN.md
    "Almanac execution pipeline".  Compile once per machine; instantiate
    many times with {!Exec.create_compiled}. *)

let fail = Host.fail

(* Unique sentinel marking a slot whose variable has not been bound yet
   (interpreter equivalent: the key is not in the hashtable).  Compared
   with physical equality; programs cannot forge it. *)
let absent : Value.t = Value.Str "\000almanac-absent"

(* Sentinel in a [Value.t] slot whose number lives unboxed at the same
   index of the level's float array. *)
let num_tag : Value.t = Value.Str "\000almanac-num"

(* Sentinel in a frame slot whose list is being built by appends; the
   list itself is in the slot's two hidden slots (see "List shapes"). *)
let pend_tag : Value.t = Value.Str "\000almanac-pending"

(* ------------------------------------------------------------------ *)
(* Runtime environment                                                 *)
(* ------------------------------------------------------------------ *)

(* The mutable execution environment threaded through compiled closures.
   [locals_names] always describes the layout of [locals]: during a
   transition the state id already points at the new state while the
   locals still belong to the old one (initializers read the old scope,
   as in the interpreter).  Each [Value.t array] level has a float array
   ([gnums], [lnums], [fnums]): empty when the level has no typed slot,
   else of the same length. *)
type env = {
  host : Host.host;
  globals : Value.t array;
  gnums : float array;
  mutable state : int;
  mutable locals : Value.t array;
  mutable lnums : float array;
  mutable locals_names : string array;
  mutable frame : Value.t array;
  mutable fnums : float array;
  mutable pending : string option;  (* transit target (a state name) *)
  mutable ret : Value.t;  (* a pending [return]'s value, or [absent] *)
  calls : (Value.t list -> Value.t) array;
      (* per call site: a host closure, or [static_call] *)
  regs : float array;  (* numeric registers; results in [regs.(0)] *)
  mutable other : Value.t;  (* a numeric code's non-number result *)
  hints : int array;
      (* per pending list variable: the numbers its last packed run
         appended, the size of its next run's first buffer *)
}

type ecode = env -> Value.t

(* A numeric code evaluates its expression; [true]: the value is the
   number in [regs.(0)], [false]: the value (not a number) is in
   [other].  Callers convert only where the interpreter calls
   [Value.as_num], so errors and their order are unchanged. *)
type ncode = env -> bool

(* A condition: [Value.truthy] of the expression's value. *)
type ccode = env -> bool

type scode = env -> unit

(* Marks a statically resolved call site in [env.calls]. *)
let static_call : Value.t list -> Value.t = fun _ -> assert false

let no_nums : float array = [||]

(* A fresh frame of [n] unbound slots, and a float array for it.  Up to
   eight slots they are array literals, which OCaml allocates inline;
   [Array.make] and [Array.create_float] call into the runtime, and
   every event and function call makes a frame. *)
let new_frame n : Value.t array =
  match n with
  | 1 -> [| absent |]
  | 2 -> [| absent; absent |]
  | 3 -> [| absent; absent; absent |]
  | 4 -> [| absent; absent; absent; absent |]
  | 5 -> [| absent; absent; absent; absent; absent |]
  | 6 -> [| absent; absent; absent; absent; absent; absent |]
  | 7 -> [| absent; absent; absent; absent; absent; absent; absent |]
  | 8 -> [| absent; absent; absent; absent; absent; absent; absent; absent |]
  | n -> Array.make n absent

let new_nums n : float array =
  match n with
  | 1 -> [| 0. |]
  | 2 -> [| 0.; 0. |]
  | 3 -> [| 0.; 0.; 0. |]
  | 4 -> [| 0.; 0.; 0.; 0. |]
  | 5 -> [| 0.; 0.; 0.; 0.; 0. |]
  | 6 -> [| 0.; 0.; 0.; 0.; 0.; 0. |]
  | 7 -> [| 0.; 0.; 0.; 0.; 0.; 0.; 0. |]
  | 8 -> [| 0.; 0.; 0.; 0.; 0.; 0.; 0.; 0. |]
  | n -> Array.create_float n

(* Slot access by value: [get] returns [absent] for an unbound slot;
   [set] stores a number unboxed whenever the level has a float array
   (always the case for a typed slot) and any other value boxed. *)
let[@inline] get vals (nums : float array) i =
  let v = vals.(i) in
  if v == num_tag then Value.Num nums.(i) else v

let set vals (nums : float array) i (v : Value.t) =
  match v with
  | Value.Num x when i < Array.length nums ->
      nums.(i) <- x;
      if vals.(i) != num_tag then vals.(i) <- num_tag
  | v -> vals.(i) <- v

(* [set] for the number in [regs.(0)] *)
let set_num vals (nums : float array) i env =
  if i < Array.length nums then begin
    nums.(i) <- env.regs.(0);
    if vals.(i) != num_tag then vals.(i) <- num_tag
  end
  else vals.(i) <- Value.Num env.regs.(0)

let num_result env (v : Value.t) =
  match v with
  | Value.Num x ->
      env.regs.(0) <- x;
      true
  | v ->
      env.other <- v;
      false

(* [get] of a bound slot into the registers, as a numeric code does *)
let[@inline] get_num env vals (nums : float array) i =
  let v = vals.(i) in
  if v == num_tag then begin
    env.regs.(0) <- nums.(i);
    true
  end
  else num_result env v

let value_of_num (n : ncode) : ecode =
 fun env -> if n env then Value.Num env.regs.(0) else env.other

let num_of_value (c : ecode) : ncode = fun env -> num_result env (c env)

(* ------------------------------------------------------------------ *)
(* Compiled program pieces                                             *)
(* ------------------------------------------------------------------ *)

type event_c = {
  ev_frame_size : int;
  ev_nums : bool;  (* the frame has a typed slot *)
  ev_binding : int option;  (* frame slot of the trigger/recv binding *)
  ev_body : scode;
}

type recv_c = { rc_typ : Ast.typ; rc_dest : Ast.dest; rc_ev : event_c }

type state_c = {
  st_name : string;
  st_local_names : string array;
  st_nums : bool;  (* some local is typed *)
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
  fn_frame : Value.t array;  (* fresh-frame template, see [fn_info] *)
  fn_nums : bool;
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
   re-derived — so a layout or dispatch bug shows up in the plan too.
   Typed slots are not in the plan: they change where a number is
   stored, never which binding a name reaches. *)

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
  c_global_nums : bool;  (* some global is typed *)
  c_global_inits : (int * string * bool * ecode) array;
      (* (slot, name, is_external, initializer) in declaration order *)
  c_states : state_c array;
  c_state_ids : (string, int) Hashtbl.t;
  c_trig_ids : (string, int) Hashtbl.t;
  c_n_trigs : int;
  c_funcs : (string, func_c) Hashtbl.t;
  c_call_sites : (string * (Value.t list -> Value.t)) array;
      (* (function name, closure unless the host overrides the name) *)
  c_plan : plan;
  c_fused : int;  (* nodes compiled to a fused shape *)
  c_list_sites : int;  (* appends compiled to a pending append *)
  c_n_hints : int;  (* length of [env.hints] *)
}

(* ------------------------------------------------------------------ *)
(* Compilation context and scopes                                      *)
(* ------------------------------------------------------------------ *)

let is_num_typ = function
  | Ast.Tint | Ast.Tlong | Ast.Tfloat -> true
  | _ -> false

(* Frame layout of one event or function body.  [l_bound] marks names that
   are guaranteed present on entry (parameters, trigger bindings) and can
   be read without a presence check; [l_typed] marks names every
   declaration of which is numeric; [l_pend] gives a list built by
   appends the first of its two hidden slots, which follow the
   variables' slots, and its index in [env.hints]. *)
type layout = {
  l_slots : (string, int) Hashtbl.t;
  l_bound : (string, unit) Hashtbl.t;
  l_typed : (string, bool) Hashtbl.t;
  l_pend : (string, int * int) Hashtbl.t;
  mutable l_size : int;
}

let new_layout () =
  { l_slots = Hashtbl.create 8; l_bound = Hashtbl.create 4;
    l_typed = Hashtbl.create 8; l_pend = Hashtbl.create 2; l_size = 0 }

let layout_add lay name numeric =
  let typed =
    numeric && Option.value ~default:true (Hashtbl.find_opt lay.l_typed name)
  in
  Hashtbl.replace lay.l_typed name typed;
  match Hashtbl.find_opt lay.l_slots name with
  | Some i -> i
  | None ->
      let i = lay.l_size in
      lay.l_size <- i + 1;
      Hashtbl.replace lay.l_slots name i;
      i

let layout_add_bound lay name numeric =
  let i = layout_add lay name numeric in
  Hashtbl.replace lay.l_bound name ();
  i

let slot_typed lay name = Hashtbl.find_opt lay.l_typed name = Some true
(* a frame with a pending list keeps its packed run's count in its
   float array *)
let layout_nums lay =
  Hashtbl.length lay.l_pend > 0
  || Hashtbl.fold (fun _ typed acc -> typed || acc) lay.l_typed false

(* Pre-pass: collect every declared name of a body (including branches
   that may not execute) so reads textually before a declaration resolve
   like the interpreter's dynamic frame lookup. *)
let rec collect_decls lay stmts =
  List.iter
    (fun (s : Ast.stmt) ->
      match s.Ast.sk with
      | Ast.Decl (typ, n, _) -> ignore (layout_add lay n (is_num_typ typ))
      | Ast.If (_, a, b) ->
          collect_decls lay a;
          collect_decls lay b
      | Ast.While (_, b) -> collect_decls lay b
      | Ast.Assign _ | Ast.Transit _ | Ast.Return _ | Ast.Send _
      | Ast.ExprStmt _ ->
          ())
    stmts

(* Pre-pass, after [collect_decls]: a frame variable [v] of the body
   with a site [v = append(v, e)] in a [while] gets its two hidden
   slots, when [append] is the built-in (no Almanac function shadows it)
   and [v] is not typed.  Every site of [v] then compiles to a pending
   append.  [hints] counts the pending variables of the machine. *)
let collect_appends lay ~append ~hints stmts =
  let rec go in_loop stmts =
    List.iter
      (fun (s : Ast.stmt) ->
        match s.Ast.sk with
        | Ast.Assign (n, Ast.Call ("append", [ Ast.Var m; _ ]))
          when in_loop && append && String.equal n m && Hashtbl.mem lay.l_slots n
               && (not (slot_typed lay n)) && not (Hashtbl.mem lay.l_pend n) ->
            Hashtbl.replace lay.l_pend n (lay.l_size, !hints);
            incr hints;
            lay.l_size <- lay.l_size + 2
        | Ast.If (_, a, b) ->
            go in_loop a;
            go in_loop b
        | Ast.While (_, b) -> go true b
        | _ -> ())
      stmts
  in
  go false stmts

(* An Almanac function as call sites see it: the layout is known before
   any body is compiled, the body is filled in afterwards (calls may
   precede the callee and recurse).  [fi_frame] is the template a call
   copies: [absent] everywhere except typed parameters, pre-tagged so an
   argument that is a number only writes the float array. *)
type fn_info = {
  fi_name : string;
  fi_layout : layout;
  fi_params : (string * int) array;
  fi_frame : Value.t array;
  fi_tagged : int array;  (* the slots [fi_frame] tags *)
  fi_nums : bool;
  fi_body : scode ref;
}

type ctx = {
  cx_global_slots : (string, int) Hashtbl.t;
  cx_global_typed : bool array;
  cx_trig_hook : (string, Ast.trigger_type) Hashtbl.t;
      (* trigger-variable names: assignment notifies the host *)
  cx_funcs : (string, fn_info) Hashtbl.t;
  mutable cx_calls : (string * (Value.t list -> Value.t)) list;
      (* reversed call sites *)
  mutable cx_n_calls : int;
  mutable cx_fused : int;  (* nodes compiled to a fused shape *)
  cx_append : bool;  (* [append] is the built-in *)
  cx_hints : int ref;  (* pending list variables so far *)
  mutable cx_list_sites : int;
}

(* State-local layout an event body is specialized to. *)
type locals_layout = { ll_slots : (string, int) Hashtbl.t; ll_typed : bool array }

type scope = {
  sc_frame : layout option;  (* None: initializer context (no frame) *)
  sc_locals : locals_layout option;
      (* [None] resolves state locals dynamically against
         [env.locals_names] (initializers, function bodies) *)
}

(* Whether a read of [name] most likely yields a number: decides, for
   speed only, which mode an operand is compiled in. *)
let var_typed ctx scope name =
  let global () =
    match Hashtbl.find_opt ctx.cx_global_slots name with
    | Some g -> ctx.cx_global_typed.(g)
    | None -> false
  in
  let outer () =
    match scope.sc_locals with
    | Some ll -> (
        match Hashtbl.find_opt ll.ll_slots name with
        | Some i -> ll.ll_typed.(i)
        | None -> global ())
    | None -> global ()
  in
  match scope.sc_frame with
  | Some lay when Hashtbl.mem lay.l_slots name -> slot_typed lay name
  | _ -> outer ()

type callee =
  | Fn of fn_info
  | Pure of Builtins.entry
  | Now
  | Host_bound of (Host.host -> Value.t list -> Value.t)
  | Dynamic  (* a host builtin, or an unknown name *)

(* The interpreter's precedence after host overrides: Almanac function,
   then built-in. *)
let callee ctx fname =
  match Hashtbl.find_opt ctx.cx_funcs fname with
  | Some fi -> Fn fi
  | None -> (
      match Builtins.find fname with
      | Some { runs = Builtins.Pure e; _ } -> Pure e
      | Some { runs = Builtins.Engine _; _ } when fname = "now" -> Now
      | Some { runs = Builtins.Engine f; _ } -> Host_bound f
      | Some { runs = Builtins.Soil; _ } | None -> Dynamic)

let rec numeric_shaped ctx scope (e : Ast.expr) =
  match e with
  | Ast.Int _ | Ast.Float _ | Ast.Unop (Ast.Neg, _)
  | Ast.Binop ((Ast.Sub | Ast.Mul | Ast.Div), _, _) ->
      true
  | Ast.Binop (Ast.Add, a, b) ->
      numeric_shaped ctx scope a || numeric_shaped ctx scope b
  | Ast.Var name -> var_typed ctx scope name
  | Ast.Call (f, _) -> (
      match callee ctx f with
      | Pure
          { fast = Builtins.(Num_of_nums _ | Num_of_value _ | Num_of_value_num _ | Elem _);
            _ }
      | Now ->
          true
      | Pure _ | Fn _ | Host_bound _ | Dynamic -> false)
  | _ -> false

(* Expressions whose value is always a [Value.Bool] (or that fail). *)
let rec bool_shaped (e : Ast.expr) =
  match e with
  | Ast.Bool _
  | Ast.Binop ((Ast.Le | Ast.Ge | Ast.Lt | Ast.Gt | Ast.Eq | Ast.Neq), _, _) ->
      true
  | Ast.Unop (Ast.Not, a) | Ast.Binop ((Ast.And | Ast.Or), a, _) -> bool_shaped a
  | _ -> false

(* ------------------------------------------------------------------ *)
(* List shapes                                                         *)
(* ------------------------------------------------------------------ *)

(* Almanac lists are immutable, so [append] copies its list and [nth]
   walks it: a loop that builds or scans a list of n entries one index
   at a time costs O(n^2).  Two shapes make the stats helpers' loops,
   which build and scan lists of numbers, linear without changing a
   value anyone can see.

   Pending appends.  A frame variable [v] with a site [v = append(v, e)]
   in a [while] of its own body (where a site runs many times per
   event: a lone append costs more pending than copied) gets two hidden
   frame slots.  A number appended to an empty or packed list starts a
   packed run: [v]'s own slot holds [pend_tag], the first hidden slot
   the list [v] held when the run began, shared as-is, and the second a
   float buffer ([Value.Nums]) that the run's numbers fill up to the
   count kept in the frame's float array at the same index.  Every other
   read of [v] first stores back the packed [Value.Nums] of prefix and
   buffer ([flush_pending]; the buffer itself when it is full and the
   prefix empty), so one append followed by a read costs what a plain
   append costs.  A flush ends the run: the next append starts a new
   buffer, so a buffer is never written once a value holds it.  Any
   other append (a value that is not a number, which first stores the
   run back, or a number appended to a non-empty [Value.List]) is a
   plain [append].  The count a run reached sizes the variable's next
   first buffer ([env.hints], per instance), so a loop that appends as
   many numbers each event allocates one buffer of the right size.
   Globals and state locals are never pending.

   Packed reads.  [size] of a [Value.Nums] is its length and [nth] reads
   its element in place, into the numeric register when the site is
   compiled as a number.

   A [Value.Nums] never leaves the engine: host calls, [send], trigger
   variables and [Exec]'s readers hand over its [Value.plain] form. *)

(* the initial buffer of a packed run with no hint *)
let first_buffer = 8

let flush_pending env fr i h k =
  let n = int_of_float env.fnums.(h + 1) in
  env.hints.(k) <- n;
  let v =
    match (fr.(h), fr.(h + 1)) with
    | Value.Nums p, Value.Nums buf ->
        let m = Float.Array.length p in
        let a = Float.Array.create (m + n) in
        Float.Array.blit p 0 a 0 m;
        Float.Array.blit buf 0 a m n;
        Value.Nums a
    | _, Value.Nums buf ->
        Value.Nums (if n = Float.Array.length buf then buf else Float.Array.sub buf 0 n)
    | _ -> invalid_arg "Compile.flush_pending"
  in
  fr.(i) <- v;
  v

(* A packed run begins on the list in slot [i] with the number in
   [regs.(0)]. *)
let start_pending env fr i h k =
  fr.(h) <- fr.(i);
  let hint = env.hints.(k) in
  let buf = Float.Array.create (if hint > 0 then hint else first_buffer) in
  Float.Array.set buf 0 env.regs.(0);
  fr.(h + 1) <- Value.Nums buf;
  env.fnums.(h + 1) <- 1.;
  fr.(i) <- pend_tag

(* the number in [regs.(0)] goes at the end of the run *)
let append_pending env fr h =
  match fr.(h + 1) with
  | Value.Nums buf ->
      let n = int_of_float env.fnums.(h + 1) in
      let buf =
        if n < Float.Array.length buf then buf
        else begin
          let grown = Float.Array.create (2 * n) in
          Float.Array.blit buf 0 grown 0 n;
          fr.(h + 1) <- Value.Nums grown;
          grown
        end
      in
      Float.Array.set buf n env.regs.(0);
      env.fnums.(h + 1) <- float_of_int (n + 1)
  | _ -> invalid_arg "Compile.append_pending"

(* the slot, first hidden slot and hint index of a pending frame
   variable *)
let pend_slot scope name =
  match scope.sc_frame with
  | Some lay -> (
      match Hashtbl.find_opt lay.l_pend name with
      | Some (h, k) -> Some (Hashtbl.find lay.l_slots name, h, k)
      | None -> None)
  | None -> None

(* ------------------------------------------------------------------ *)
(* Variable access                                                     *)
(* ------------------------------------------------------------------ *)

(* Readers come in pairs: a value read and a numeric read; both check
   the slot's tag, whatever its static type (a typed slot can hold a
   value of another kind, an untyped one a number). *)

let unbound name _ = fail "unbound variable %s" name

let global_read ctx name : ecode * ncode =
  match Hashtbl.find_opt ctx.cx_global_slots name with
  | Some g ->
      ( (fun env ->
          let v = get env.globals env.gnums g in
          if v != absent then v else unbound name env),
        fun env ->
          if env.globals.(g) != absent then get_num env env.globals env.gnums g
          else unbound name env )
  | None -> (unbound name, unbound name)

(* state locals, then globals *)
let outer_read ctx scope name : ecode * ncode =
  let gv, gn = global_read ctx name in
  match scope.sc_locals with
  | Some { ll_slots; _ } -> (
      match Hashtbl.find_opt ll_slots name with
      | Some i ->
          ( (fun env ->
              let v = get env.locals env.lnums i in
              if v != absent then v else gv env),
            fun env ->
              if env.locals.(i) != absent then get_num env env.locals env.lnums i
              else gn env )
      | None -> (gv, gn))
  | None ->
      let find env =
        let names = env.locals_names in
        let n = Array.length names in
        let rec go i =
          if i >= n then -1
          else if String.equal names.(i) name then
            if env.locals.(i) != absent then i else -1
          else go (i + 1)
        in
        go 0
      in
      ( (fun env ->
          let i = find env in
          if i >= 0 then get env.locals env.lnums i else gv env),
        fun env ->
          let i = find env in
          if i >= 0 then get_num env env.locals env.lnums i else gn env )

(* the read of a name, with no regard to pending appends *)
let slot_read ctx scope name : ecode * ncode =
  match scope.sc_frame with
  | Some lay -> (
      match Hashtbl.find_opt lay.l_slots name with
      | Some i when Hashtbl.mem lay.l_bound name ->
          ( (fun env -> get env.frame env.fnums i),
            fun env -> get_num env env.frame env.fnums i )
      | Some i ->
          let ov, on = outer_read ctx scope name in
          ( (fun env ->
              let v = get env.frame env.fnums i in
              if v != absent then v else ov env),
            fun env ->
              if env.frame.(i) != absent then get_num env env.frame env.fnums i
              else on env )
      | None -> outer_read ctx scope name)
  | None -> outer_read ctx scope name

(* [slot_read]; a pending list is stored back before it is read *)
let var_read ctx scope name : ecode * ncode =
  let read = slot_read ctx scope name in
  match pend_slot scope name with
  | None -> read
  | Some (i, h, k) ->
      let ev, nv = read in
      ( (fun env ->
          let fr = env.frame in
          if fr.(i) == pend_tag then flush_pending env fr i h k else ev env),
        fun env ->
          let fr = env.frame in
          if fr.(i) == pend_tag then num_result env (flush_pending env fr i h k)
          else nv env )

(* A writer stores a value ([wv]) or the number in [regs.(0)] ([wn]). *)
type writer = { wv : env -> Value.t -> unit; wn : env -> unit }

let global_write ctx name : writer =
  match Hashtbl.find_opt ctx.cx_global_slots name with
  | Some g -> (
      let check env =
        if env.globals.(g) == absent then
          fail "assignment to unbound variable %s" name
      in
      match Hashtbl.find_opt ctx.cx_trig_hook name with
      | Some tt ->
          let wv env v =
            check env;
            set env.globals env.gnums g v;
            env.host.h_set_trigger name tt (Value.plain v)
          in
          { wv; wn = (fun env -> wv env (Value.Num env.regs.(0))) }
      | None ->
          { wv = (fun env v -> check env; set env.globals env.gnums g v);
            wn = (fun env -> check env; set_num env.globals env.gnums g env) })
  | None ->
      { wv = (fun _ _ -> fail "assignment to unbound variable %s" name);
        wn = (fun _ -> fail "assignment to unbound variable %s" name) }

let outer_write ctx scope name : writer =
  let g = global_write ctx name in
  match scope.sc_locals with
  | Some { ll_slots; _ } -> (
      match Hashtbl.find_opt ll_slots name with
      | Some i ->
          { wv =
              (fun env v ->
                if env.locals.(i) != absent then set env.locals env.lnums i v
                else g.wv env v);
            wn =
              (fun env ->
                if env.locals.(i) != absent then set_num env.locals env.lnums i env
                else g.wn env) }
      | None -> g)
  | None ->
      let find env =
        let names = env.locals_names in
        let n = Array.length names in
        let rec go i =
          if i >= n then -1
          else if String.equal names.(i) name then
            if env.locals.(i) != absent then i else -1
          else go (i + 1)
        in
        go 0
      in
      { wv =
          (fun env v ->
            let i = find env in
            if i >= 0 then set env.locals env.lnums i v else g.wv env v);
        wn =
          (fun env ->
            let i = find env in
            if i >= 0 then set_num env.locals env.lnums i env else g.wn env) }

let compile_assign_target ctx scope name : writer =
  match scope.sc_frame with
  | Some lay -> (
      match Hashtbl.find_opt lay.l_slots name with
      | Some i when Hashtbl.mem lay.l_bound name ->
          { wv = (fun env v -> set env.frame env.fnums i v);
            wn = (fun env -> set_num env.frame env.fnums i env) }
      | Some i ->
          let outer = outer_write ctx scope name in
          { wv =
              (fun env v ->
                if env.frame.(i) != absent then set env.frame env.fnums i v
                else outer.wv env v);
            wn =
              (fun env ->
                if env.frame.(i) != absent then set_num env.frame env.fnums i env
                else outer.wn env) }
      | None -> outer_write ctx scope name)
  | None -> outer_write ctx scope name

(* ------------------------------------------------------------------ *)
(* Fused shapes                                                        *)
(* ------------------------------------------------------------------ *)

(* The hottest node shapes get their own closure, which reads a fast
   operand in place instead of calling its code: a typed frame slot
   ([fnums.(i)], only while [frame.(i) == num_tag]) or a literal.  Any
   other case (absent slot, outer binding, a value of another kind) runs
   the node's general code, from scratch when nothing was evaluated yet,
   else from where the fused code stopped; operands are still evaluated
   left to right.  The shape is chosen here, by the closure built, never
   by a match at run time. *)
type operand = Slot of int | Lit of float

let fast_operand scope (e : Ast.expr) =
  match (e, scope.sc_frame) with
  | Ast.Int i, _ -> Some (Lit (float_of_int i))
  | Ast.Float x, _ -> Some (Lit x)
  | Ast.Var name, Some lay when slot_typed lay name ->
      Some (Slot (Hashtbl.find lay.l_slots name))
  | _ -> None

(* The frame slot of a parameter or trigger binding that no append
   makes pending: never absent, it holds a value boxed unless its tag is
   [num_tag]. *)
let bound_slot scope (e : Ast.expr) =
  match (e, scope.sc_frame) with
  | Ast.Var name, Some lay
    when Hashtbl.mem lay.l_bound name && not (Hashtbl.mem lay.l_pend name) ->
      Hashtbl.find_opt lay.l_slots name
  | _ -> None

let fused ctx code =
  ctx.cx_fused <- ctx.cx_fused + 1;
  code

(* the right operand of an ordering comparison, converted as the
   interpreter does *)
let[@inline] order_right (nb : ncode) env =
  if nb env then env.regs.(0) else Value.as_num env.other

(* [slot OP expr]: the slot is tested before [expr] runs *)
let order_slot_expr op i nb (general : ccode) : ccode =
  match op with
  | Ast.Lt ->
      fun env ->
        if env.frame.(i) == num_tag then
          let x = env.fnums.(i) in
          x < order_right nb env
        else general env
  | Ast.Le ->
      fun env ->
        if env.frame.(i) == num_tag then
          let x = env.fnums.(i) in
          x <= order_right nb env
        else general env
  | Ast.Gt ->
      fun env ->
        if env.frame.(i) == num_tag then
          let x = env.fnums.(i) in
          x > order_right nb env
        else general env
  | _ ->
      fun env ->
        if env.frame.(i) == num_tag then
          let x = env.fnums.(i) in
          x >= order_right nb env
        else general env

(* [expr > slot]: [expr] runs first, so only the slot's read falls back *)
let order_expr_gt_slot na j (nb : ncode) : ccode =
 fun env ->
  let x = if na env then env.regs.(0) else Value.as_num env.other in
  if env.frame.(j) == num_tag then x > env.fnums.(j) else x > order_right nb env

(* Arithmetic evaluates both operands first, left to right; if both are
   numbers (and no division by zero) the float operation runs on
   registers, else {!Semantics.arith} decides (string concatenation,
   errors).  [arith_rest] is the code after the left operand ran, [oka]
   its result. *)
let[@inline] arith_rest op (nb : ncode) env oka =
  let x = env.regs.(0) and va = env.other in
  let okb = nb env in
  if oka && okb then begin
    let y = env.regs.(0) in
    match op with
    | Ast.Add -> env.regs.(0) <- x +. y; true
    | Ast.Sub -> env.regs.(0) <- x -. y; true
    | Ast.Mul -> env.regs.(0) <- x *. y; true
    | _ when y <> 0. -> env.regs.(0) <- x /. y; true
    | _ -> num_result env (Semantics.arith op (Value.Num x) (Value.Num y))
  end
  else
    let va = if oka then Value.Num x else va in
    let vb = if okb then Value.Num env.regs.(0) else env.other in
    num_result env (Semantics.arith op va vb)

(* [expr OP slot], OP one of + - * *)
let arith_expr_slot op (na : ncode) j (nb : ncode) : ncode =
  match op with
  | Ast.Add ->
      fun env ->
        let oka = na env in
        if oka && env.frame.(j) == num_tag then begin
          env.regs.(0) <- env.regs.(0) +. env.fnums.(j);
          true
        end
        else arith_rest op nb env oka
  | Ast.Sub ->
      fun env ->
        let oka = na env in
        if oka && env.frame.(j) == num_tag then begin
          env.regs.(0) <- env.regs.(0) -. env.fnums.(j);
          true
        end
        else arith_rest op nb env oka
  | _ ->
      fun env ->
        let oka = na env in
        if oka && env.frame.(j) == num_tag then begin
          env.regs.(0) <- env.regs.(0) *. env.fnums.(j);
          true
        end
        else arith_rest op nb env oka

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

(* Evaluate compiled argument codes left to right (the interpreter uses
   [List.map], which the stdlib evaluates left to right).  Top-level
   recursions, so no closure is allocated per call. *)
let rec eval_from (codes : ecode array) env i : Value.t list =
  if i >= Array.length codes then []
  else
    let v = codes.(i) env in
    v :: eval_from codes env (i + 1)

let eval_args codes env = eval_from codes env 0

(* [eval_args] for a host closure, which gets no [Value.Nums] *)
let rec eval_plain_from (codes : ecode array) env i : Value.t list =
  if i >= Array.length codes then []
  else
    let v = Value.plain (codes.(i) env) in
    v :: eval_plain_from codes env (i + 1)

let eval_host_args codes env = eval_plain_from codes env 0

(* Whether the index in [r] (converted as [nth] converts it) is inside
   the packed list [a]. *)
let[@inline] in_range a (r : float) =
  let i = int_of_float r in
  i >= 0 && i < Float.Array.length a

(* A call site compiles to a value code or a numeric code. *)
type call_code = V of ecode | N of ncode

(* A new call site of [fname]: its index in [env.calls]. *)
let call_site ctx fname cal =
  let idx = ctx.cx_n_calls in
  ctx.cx_n_calls <- idx + 1;
  ctx.cx_calls <-
    ( fname,
      match cal with
      | Dynamic -> fun _ -> fail "unknown function %s" fname
      | Fn _ | Pure _ | Now | Host_bound _ -> static_call )
    :: ctx.cx_calls;
  idx

let rec compile_expr ctx scope (e : Ast.expr) : ecode =
  match e with
  | Ast.Bool b ->
      let v = Value.of_bool b in
      fun _ -> v
  | Ast.Int i ->
      let v = Value.Num (float_of_int i) in
      fun _ -> v
  | Ast.Float f ->
      let v = Value.Num f in
      fun _ -> v
  | Ast.String s ->
      let v = Value.Str s in
      fun _ -> v
  | Ast.AnyLit ->
      let v = Value.FilterV (Farm_net.Filter.atom Farm_net.Filter.Any) in
      fun _ -> v
  | Ast.Var name -> fst (var_read ctx scope name)
  | Ast.Field (b, f) ->
      let cb = compile_expr ctx scope b in
      fun env -> Value.field (cb env) f
  | Ast.Call (fname, args) -> (
      match compile_call ctx scope ~num:false fname args with
      | V c -> c
      | N n -> value_of_num n)
  | Ast.Unop (Ast.Not, a) when not (bool_shaped a) ->
      let ca = compile_expr ctx scope a in
      fun env -> Semantics.not_ (ca env)
  | Ast.Unop (Ast.Neg, _) | Ast.Binop ((Ast.Add | Ast.Sub | Ast.Mul | Ast.Div), _, _) ->
      value_of_num (compile_num ctx scope e)
  | Ast.Binop ((Ast.And | Ast.Or) as op, a, b) when not (bool_shaped a) ->
      compile_logic ctx scope op a b
  | Ast.Unop (Ast.Not, _) | Ast.Binop _ ->
      let c = compile_bool ctx scope e in
      fun env -> Value.of_bool (c env)
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
  | Ast.ListLit [] ->
      let v = Value.List [] in
      fun _ -> v
  | Ast.ListLit es ->
      let codes = Array.of_list (List.map (compile_expr ctx scope) es) in
      fun env -> Value.List (eval_args codes env)

(* [and] / [or] whose left operand may be a filter (or anything else) *)
and compile_logic ctx scope op a b : ecode =
  let ca = compile_expr ctx scope a in
  let cb = compile_expr ctx scope b in
  fun env ->
    let va = ca env in
    match Semantics.logic_left op va with
    | Some r -> r
    | None -> Semantics.logic_right op va (cb env)

and compile_num ctx scope (e : Ast.expr) : ncode =
  match e with
  | Ast.Int i ->
      let x = float_of_int i in
      fun env ->
        env.regs.(0) <- x;
        true
  | Ast.Float x ->
      fun env ->
        env.regs.(0) <- x;
        true
  | Ast.Var name -> snd (var_read ctx scope name)
  | Ast.Unop (Ast.Neg, a) ->
      let na = compile_num ctx scope a in
      fun env ->
        if na env then begin
          env.regs.(0) <- -.env.regs.(0);
          true
        end
        else num_result env (Semantics.neg env.other)
  | Ast.Binop ((Ast.Add | Ast.Sub | Ast.Mul | Ast.Div) as op, a, b) ->
      compile_arith ctx scope op a b
  | Ast.Call (fname, args) -> (
      match compile_call ctx scope ~num:true fname args with
      | N n -> n
      | V c -> num_of_value c)
  | _ -> num_of_value (compile_expr ctx scope e)

(* [+ - * /]: see [arith_rest]; division is never fused *)
and compile_arith ctx scope op a b : ncode =
  let na = compile_num ctx scope a in
  let nb = compile_num ctx scope b in
  match fast_operand scope b with
  | Some (Slot j) when op <> Ast.Div -> fused ctx (arith_expr_slot op na j nb)
  | _ -> fun env -> arith_rest op nb env (na env)

(* A [bool_shaped] expression as a condition. *)
and compile_bool ctx scope (e : Ast.expr) : ccode =
  match e with
  | Ast.Bool b -> fun _ -> b
  | Ast.Binop ((Ast.Le | Ast.Ge | Ast.Lt | Ast.Gt) as op, a, b) ->
      compile_order ctx scope op a b
  | Ast.Binop (Ast.Eq, a, b) -> compile_equal ctx scope a b
  | Ast.Binop (Ast.Neq, a, b) ->
      let c = compile_equal ctx scope a b in
      fun env -> not (c env)
  | Ast.Unop (Ast.Not, a) ->
      let c = compile_bool ctx scope a in
      fun env -> not (c env)
  | Ast.Binop (Ast.And, a, b) ->
      let ca = compile_bool ctx scope a in
      let cb = strict_bool ctx scope Ast.And b in
      fun env -> ca env && cb env
  | Ast.Binop (Ast.Or, a, b) ->
      let ca = compile_bool ctx scope a in
      let cb = strict_bool ctx scope Ast.Or b in
      fun env -> ca env || cb env
  | _ -> invalid_arg "Compile.compile_bool"

(* the right operand of [and] / [or] after a bool left operand *)
and strict_bool ctx scope op b : ccode =
  if bool_shaped b then compile_bool ctx scope b
  else
    let cb = compile_expr ctx scope b in
    fun env -> Semantics.logic_bool op (cb env)

(* Ordering comparisons convert each operand as soon as it is evaluated,
   like the interpreter. *)
and compile_order ctx scope op a b : ccode =
  let na = compile_num ctx scope a in
  let nb = compile_num ctx scope b in
  let general env =
    if not (na env) then env.regs.(0) <- Value.as_num env.other;
    let x = env.regs.(0) in
    if not (nb env) then env.regs.(0) <- Value.as_num env.other;
    let y = env.regs.(0) in
    match op with
    | Ast.Le -> x <= y
    | Ast.Ge -> x >= y
    | Ast.Lt -> x < y
    | _ -> x > y
  in
  match (fast_operand scope a, fast_operand scope b) with
  | Some (Slot i), _ -> fused ctx (order_slot_expr op i nb general)
  | _, Some (Slot j) when op = Ast.Gt -> fused ctx (order_expr_gt_slot na j nb)
  | _ -> general

and compile_equal ctx scope a b : ccode =
  if numeric_shaped ctx scope a && numeric_shaped ctx scope b then
    let na = compile_num ctx scope a in
    let nb = compile_num ctx scope b in
    fun env ->
      let oka = na env in
      let x = env.regs.(0) and va = env.other in
      let okb = nb env in
      if oka && okb then x = env.regs.(0)
      else
        Value.equal
          (if oka then Value.Num x else va)
          (if okb then Value.Num env.regs.(0) else env.other)
  else
    let ca = compile_expr ctx scope a in
    let cb = compile_expr ctx scope b in
    fun env ->
      let va = ca env in
      let vb = cb env in
      Value.equal va vb

and compile_cond ctx scope (e : Ast.expr) : ccode =
  if bool_shaped e then compile_bool ctx scope e
  else
    match e with
    | Ast.Unop (Ast.Not, a) ->
        let ca = compile_expr ctx scope a in
        fun env -> Value.truthy (Semantics.not_ (ca env))
    | e ->
        let c = compile_expr ctx scope e in
        fun env -> Value.truthy (c env)

(* Resolve one call site.  Every site first checks [env.calls] for a host
   override (the interpreter's first choice); an Almanac function then
   runs with its arguments written straight into a fresh frame, a pure
   built-in through its list-free entry when the arguments allow.  [num]:
   the caller wants a number, so a site that can give either may give
   a numeric code. *)
and compile_call ctx scope ~num:want_num fname args : call_code =
  let cal = callee ctx fname in
  let idx = call_site ctx fname cal in
  (* each argument is compiled once, as a number where the built-in
     takes one; [values] is the list-convention view of the arguments
     for a host override and for the reference implementation *)
  let num a = compile_num ctx scope a and value a = compile_expr ctx scope a in
  let overridden env = env.calls.(idx) != static_call in
  let host env values = env.calls.(idx) (eval_host_args values env) in
  let all_values () = Array.of_list (List.map value args) in
  match cal with
  | Dynamic ->
      let values = all_values () in
      V (fun env -> host env values)
  | Host_bound f ->
      let values = all_values () in
      V
        (fun env ->
          if overridden env then host env values
          else f env.host (eval_args values env))
  | Now ->
      let values = all_values () in
      N
        (fun env ->
          if overridden env then num_result env (host env values)
          else begin
            ignore (eval_args values env);
            env.regs.(0) <- env.host.h_now ();
            true
          end)
  | Fn fi -> compile_fn_call ctx scope fi idx args
  | Pure e -> (
      match (e.fast, args) with
      | Builtins.Num_of_nums f, [ a ] when e.arity = 1 ->
          let n0 = num a in
          let values = [| value_of_num n0 |] in
          N
            (fun env ->
              if overridden env then num_result env (host env values)
              else if n0 env then begin
                f env.regs;
                true
              end
              else num_result env (e.call [ env.other ]))
      | Builtins.Num_of_nums f, [ a; b ] when e.arity = 2 ->
          let n0 = num a in
          let n1 = num b in
          let values = [| value_of_num n0; value_of_num n1 |] in
          N
            (fun env ->
              if overridden env then num_result env (host env values)
              else
                let ok0 = n0 env in
                let x = env.regs.(0) and v0 = env.other in
                let ok1 = n1 env in
                if ok0 && ok1 then begin
                  env.regs.(1) <- env.regs.(0);
                  env.regs.(0) <- x;
                  f env.regs;
                  true
                end
                else
                  let v0 = if ok0 then Value.Num x else v0 in
                  let v1 = if ok1 then Value.Num env.regs.(0) else env.other in
                  num_result env (e.call [ v0; v1 ]))
      | Builtins.Num_of_value f, [ a ] when e.arity = 1 -> (
          let c0 = value a in
          let values = [| c0 |] in
          let general env =
            if overridden env then num_result env (host env values)
            else begin
              f env.regs (c0 env);
              true
            end
          in
          match bound_slot scope a with
          | Some s ->
              N
                (fused ctx (fun env ->
                     let v = env.frame.(s) in
                     if v != num_tag && env.calls.(idx) == static_call then begin
                       f env.regs v;
                       true
                     end
                     else general env))
          | None -> N general)
      | Builtins.Num_of_value_num f, [ a; b ] when e.arity = 2 -> (
          let c0 = value a in
          let n1 = num b in
          let values = [| c0; value_of_num n1 |] in
          let general env =
            if overridden env then num_result env (host env values)
            else
              let v0 = c0 env in
              if n1 env then begin
                f env.regs v0;
                true
              end
              else num_result env (e.call [ v0; env.other ])
          in
          match (bound_slot scope a, fast_operand scope b) with
          | Some s, Some (Slot i) ->
              N
                (fused ctx (fun env ->
                     let v = env.frame.(s) in
                     if v != num_tag && env.frame.(i) == num_tag
                        && env.calls.(idx) == static_call
                     then begin
                       env.regs.(0) <- env.fnums.(i);
                       f env.regs v;
                       true
                     end
                     else general env))
          | _ -> N general)
      | Builtins.Value_of_value f, [ a ] when e.arity = 1 ->
          let c0 = value a in
          let values = [| c0 |] in
          V (fun env -> if overridden env then host env values else f (c0 env))
      | Builtins.Value_of_values f, [ a; b ] when e.arity = 2 ->
          let c0 = value a in
          let c1 = value b in
          let values = [| c0; c1 |] in
          V
            (fun env ->
              if overridden env then host env values
              else
                let v0 = c0 env in
                let v1 = c1 env in
                f v0 v1)
      | Builtins.Elem f, [ a; b ] when e.arity = 2 ->
          (* a packed list's element is read in place *)
          let c0 = value a in
          let n1 = num b in
          let values = [| c0; value_of_num n1 |] in
          if want_num then
            let general env =
              if overridden env then num_result env (host env values)
              else
                let v0 = c0 env in
                if n1 env then
                  match v0 with
                  | Value.Nums a when in_range a env.regs.(0) ->
                      env.regs.(0) <- Float.Array.get a (int_of_float env.regs.(0));
                      true
                  | v -> num_result env (f env.regs v)
                else num_result env (e.call [ v0; env.other ])
            in
            (* [nth(bound, slot)]: the packed list's element, read in place *)
            match (bound_slot scope a, fast_operand scope b) with
            | Some s, Some (Slot k) ->
                N
                  (fused ctx (fun env ->
                       match env.frame.(s) with
                       | Value.Nums a
                         when env.frame.(k) == num_tag
                              && env.calls.(idx) == static_call
                              && in_range a env.fnums.(k) ->
                           env.regs.(0) <- Float.Array.get a (int_of_float env.fnums.(k));
                           true
                       | _ -> general env))
            | _ -> N general
          else
            V
              (fun env ->
                if overridden env then host env values
                else
                  let v0 = c0 env in
                  if n1 env then
                    match v0 with
                    | Value.Nums a when in_range a env.regs.(0) ->
                        Value.Num (Float.Array.get a (int_of_float env.regs.(0)))
                    | v -> f env.regs v
                  else e.call [ v0; env.other ])
      | _ ->
          let values = all_values () in
          V
            (fun env ->
              if overridden env then host env values
              else e.call (eval_args values env)))

(* An Almanac function call: each argument, left to right, goes straight
   into its parameter slot of the callee's fresh frame (a typed
   parameter receives a number unboxed); a recursive call in an argument
   builds its own frame, so nothing is overwritten. *)
and compile_fn_call ctx scope fi idx args : call_code =
  let nparams = Array.length fi.fi_params in
  let nargs = List.length args in
  if nargs <> nparams then begin
    let values = Array.of_list (List.map (compile_expr ctx scope) args) in
    V
      (fun env ->
        let argv = eval_args values env in
        if env.calls.(idx) != static_call then env.calls.(idx) (List.map Value.plain argv)
        else fail "%s expects %d arguments, got %d" fi.fi_name nparams nargs)
  end
  else
    let writers, values =
      List.split
        (List.mapi
           (fun k arg ->
             let name, slot = fi.fi_params.(k) in
             if slot_typed fi.fi_layout name && numeric_shaped ctx scope arg then
               let n = compile_num ctx scope arg in
               ( (fun env fr (fnums : float array) ->
                   if n env then fnums.(slot) <- env.regs.(0) else fr.(slot) <- env.other),
                 value_of_num n )
             else
               let c = compile_expr ctx scope arg in
               ((fun env fr fnums -> set fr fnums slot (c env)), c))
           args)
    in
    let writers = Array.of_list writers and values = Array.of_list values in
    V
      (fun env ->
        if env.calls.(idx) != static_call then env.calls.(idx) (eval_host_args values env)
        else begin
          let fr = new_frame (Array.length fi.fi_frame) in
          let tagged = fi.fi_tagged in
          for k = 0 to Array.length tagged - 1 do
            fr.(tagged.(k)) <- num_tag
          done;
          let fnums = if fi.fi_nums then new_nums (Array.length fr) else no_nums in
          for k = 0 to Array.length writers - 1 do
            writers.(k) env fr fnums
          done;
          run_frame env !(fi.fi_body) fr fnums
        end)

(* Run a function body in frame [fr]; a [return] ends it with the value
   it left in [env.ret], which is cleared for the caller. *)
and run_frame env body fr fnums =
  let saved = env.frame and saved_nums = env.fnums in
  env.frame <- fr;
  env.fnums <- fnums;
  match body env with
  | () ->
      env.frame <- saved;
      env.fnums <- saved_nums;
      let v = env.ret in
      if v == absent then Value.Unit
      else begin
        env.ret <- absent;
        v
      end
  | exception e ->
      env.frame <- saved;
      env.fnums <- saved_nums;
      env.ret <- absent;
      raise e

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let nop_stmt : scode = fun _ -> ()

(* Statements in order, stopping once one leaves a [return] pending
   (the slot is clear when a body starts).  Up to four statements run
   straight-line in one closure; longer bodies loop over an array. *)
let seq (codes : scode list) : scode =
  match codes with
  | [] -> nop_stmt
  | [ c ] -> c
  | [ a; b ] ->
      fun env ->
        a env;
        if env.ret == absent then b env
  | [ a; b; c ] ->
      fun env ->
        a env;
        if env.ret == absent then begin
          b env;
          if env.ret == absent then c env
        end
  | [ a; b; c; d ] ->
      fun env ->
        a env;
        if env.ret == absent then begin
          b env;
          if env.ret == absent then begin
            c env;
            if env.ret == absent then d env
          end
        end
  | codes ->
      let arr = Array.of_list codes in
      let n = Array.length arr in
      fun env ->
        let i = ref 0 in
        while !i < n && env.ret == absent do
          arr.(!i) env;
          incr i
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
      let general : scode =
        match init with
        | Some e when numeric_shaped ctx scope e ->
            let ne = compile_num ctx scope e in
            fun env ->
              if ne env then set_num env.frame env.fnums slot env
              else env.frame.(slot) <- env.other
        | Some e ->
            let c = compile_expr ctx scope e in
            fun env -> set env.frame env.fnums slot (c env)
        | None ->
            let v = Value.default_of_typ typ in
            fun env -> set env.frame env.fnums slot v
      in
      (* [T x = literal] *)
      match (fast_operand scope (Ast.Var n), Option.bind init (fast_operand scope)) with
      | Some (Slot i), Some (Lit k) ->
          fused ctx (fun env ->
              if env.frame.(i) == num_tag then env.fnums.(i) <- k else general env)
      | _ -> general)
  | Ast.Assign (n, Ast.Call ("append", [ Ast.Var m; x ]))
    when String.equal n m && pend_slot scope n <> None ->
      compile_pending_append ctx scope n x
  | Ast.Assign (n, e) ->
      let w = compile_assign_target ctx scope n in
      if numeric_shaped ctx scope e then
        let ne = compile_num ctx scope e in
        let general env = if ne env then w.wn env else w.wv env env.other in
        let x_plus_lit =
          match e with
          | Ast.Binop (Ast.Add, Ast.Var m, k) when String.equal m n -> (
              match fast_operand scope k with Some (Lit k) -> Some k | _ -> None)
          | _ -> None
        in
        match (fast_operand scope (Ast.Var n), x_plus_lit) with
        | Some (Slot i), Some k ->
            (* [x = x + k] *)
            fused ctx (fun env ->
                if env.frame.(i) == num_tag then env.fnums.(i) <- env.fnums.(i) +. k
                else general env)
        | Some (Slot i), None ->
            (* [x = e] on a typed frame slot: the number goes in place *)
            fused ctx (fun env ->
                if ne env then
                  if env.frame.(i) == num_tag then env.fnums.(i) <- env.regs.(0)
                  else w.wn env
                else w.wv env env.other)
        | None, _ | Some (Lit _), _ -> general
      else
        let c = compile_expr ctx scope e in
        fun env -> w.wv env (c env)
  | Ast.Transit e -> (
      match e with
      | Ast.Var s | Ast.String s ->
          let target = Some s in
          fun env -> env.pending <- target
      | e ->
          let c = compile_expr ctx scope e in
          fun env -> env.pending <- Some (Value.as_str (c env)))
  | Ast.If (c, th, []) ->
      let cc = compile_cond ctx scope c in
      let cth = compile_stmts ctx scope th in
      fun env -> if cc env then cth env
  | Ast.If (c, th, el) ->
      let cc = compile_cond ctx scope c in
      let cth = compile_stmts ctx scope th in
      let cel = compile_stmts ctx scope el in
      fun env -> if cc env then cth env else cel env
  | Ast.While (c, body) ->
      let cc = compile_cond ctx scope c in
      let cbody = compile_stmts ctx scope body in
      fun env ->
        let fuel = ref 1_000_000 in
        (* a [return] in the body ends the loop *)
        while env.ret == absent && cc env do
          decr fuel;
          if !fuel <= 0 then fail "while loop exceeded iteration budget";
          cbody env
        done
  | Ast.Return None -> fun env -> env.ret <- Value.Unit
  | Ast.Return (Some e) ->
      let c = compile_expr ctx scope e in
      fun env -> env.ret <- c env
  | Ast.Send (e, dest) -> (
      let ce = compile_expr ctx scope e in
      match dest with
      | Ast.Harvester ->
          fun env -> env.host.h_send Host.To_harvester (Value.plain (ce env))
      | Ast.Machine (m, None) ->
          let tgt = Host.To_machine (m, None) in
          fun env -> env.host.h_send tgt (Value.plain (ce env))
      | Ast.Machine (m, Some d) ->
          let cd = compile_expr ctx scope d in
          fun env ->
            let tgt =
              Host.To_machine (m, Some (int_of_float (Value.as_num (cd env))))
            in
            env.host.h_send tgt (Value.plain (ce env)))
  | Ast.ExprStmt e ->
      if numeric_shaped ctx scope e then
        let n = compile_num ctx scope e in
        fun env -> ignore (n env)
      else
        let c = compile_expr ctx scope e in
        fun env -> ignore (c env)

and compile_stmts ctx scope stmts =
  seq (List.map (compile_stmt ctx scope) stmts)

(* [v = append(v, x)] on a pending frame variable (see "List shapes").
   While [v]'s slot holds a list or is pending, a number [x] goes into
   the packed run when there is one or the list allows one; anything
   else stores the run back and appends plainly.  If reading [x] stored
   [v] back, the stored list starts the next run.  An unbound slot, a
   value of another kind or a host override runs the general code, which
   is what compiling the assignment as a plain call would give.  [x] is
   compiled as a number, so a number reaches the buffer unboxed. *)
and compile_pending_append ctx scope n x : scode =
  let i, h, k = Option.get (pend_slot scope n) in
  let cal = callee ctx "append" in
  let append =
    match cal with
    | Pure { fast = Builtins.Value_of_values f; arity = 2; _ } -> f
    | _ -> invalid_arg "Compile.compile_pending_append"
  in
  let idx = call_site ctx "append" cal in
  let w = compile_assign_target ctx scope n in
  let cv = fst (var_read ctx scope n) in
  let nx = compile_num ctx scope x in
  let cx = value_of_num nx in
  let values = [| cv; cx |] in
  let general env =
    w.wv env
      (if env.calls.(idx) != static_call then
         env.calls.(idx) (eval_host_args values env)
       else
         let v0 = cv env in
         let v1 = cx env in
         append v0 v1)
  in
  ctx.cx_list_sites <- ctx.cx_list_sites + 1;
  fun env ->
    let fr = env.frame in
    let cur = fr.(i) in
    if env.calls.(idx) == static_call
       && (cur == pend_tag
          || match cur with Value.List _ | Value.Nums _ -> true | _ -> false)
    then begin
      let is_num = nx env in
      if fr.(i) == pend_tag then
        if is_num then append_pending env fr h
        else fr.(i) <- append (flush_pending env fr i h k) env.other
      else
        match fr.(i) with
        | Value.List [] | Value.Nums _ when is_num -> start_pending env fr i h k
        | l -> fr.(i) <- append l (if is_num then Value.Num env.regs.(0) else env.other)
    end
    else general env

(* ------------------------------------------------------------------ *)
(* Events, states, functions                                           *)
(* ------------------------------------------------------------------ *)

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

let compile_event ctx (locals : locals_layout) (ev : Ast.event) : event_c * vevent =
  (* the binding's type: a time trigger binds a number, a recv its type *)
  let binding =
    match ev.trigger with
    | Ast.On_trigger_var (y, Some x) ->
        Some (x, Hashtbl.find_opt ctx.cx_trig_hook y = Some Ast.Time)
    | Ast.On_recv (ty, n, _) -> Some (n, is_num_typ ty)
    | _ -> None
  in
  let lay = new_layout () in
  (match binding with
  | Some (n, numeric) -> ignore (layout_add_bound lay n numeric)
  | None -> ());
  collect_decls lay ev.body;
  collect_appends lay ~append:ctx.cx_append ~hints:ctx.cx_hints ev.body;
  let scope = { sc_frame = Some lay; sc_locals = Some locals } in
  let body = compile_stmts ctx scope ev.body in
  let binding =
    match binding with
    | Some (n, _) -> Some (n, Hashtbl.find lay.l_slots n)
    | None -> None
  in
  ( { ev_frame_size = lay.l_size;
      ev_nums = layout_nums lay;
      ev_binding = Option.map snd binding;
      ev_body = body },
    { ve_frame = vframe_of_layout lay;
      ve_binding = binding;
      ve_locals = Some (tbl_to_slots locals.ll_slots);
      ve_body = ev.body } )

let compile_state ctx (m : Ast.machine) trig_names (st : Ast.state_decl) :
    state_c * vstate =
  (* state-local slot layout (duplicate declarations share a slot, last
     initializer wins — hashtable-replace semantics) *)
  let local_tbl = Hashtbl.create 8 in
  let typed = Hashtbl.create 8 in
  let n_locals = ref 0 in
  let slots =
    List.map
      (fun (v : Ast.var_decl) ->
        Hashtbl.replace typed v.vname
          (is_num_typ v.vtyp
          && Option.value ~default:true (Hashtbl.find_opt typed v.vname));
        match Hashtbl.find_opt local_tbl v.vname with
        | Some i -> i
        | None ->
            let i = !n_locals in
            incr n_locals;
            Hashtbl.replace local_tbl v.vname i;
            i)
      st.slocals
  in
  let local_names = Array.make !n_locals "" in
  Hashtbl.iter (fun name i -> local_names.(i) <- name) local_tbl;
  let locals =
    { ll_slots = local_tbl;
      ll_typed = Array.map (fun name -> Hashtbl.find typed name) local_names }
  in
  let local_inits =
    List.map2
      (fun slot (v : Ast.var_decl) ->
        let init_scope = { sc_frame = None; sc_locals = None } in
        let code =
          match v.vinit with
          | Some e -> compile_expr ctx init_scope e
          | None ->
              let d = Value.default_of_typ v.vtyp in
              fun _ -> d
        in
        let vinit =
          match v.vinit with Some e -> Vexpr e | None -> Vdefault v.vtyp
        in
        ((slot, code), (slot, v.vname, vinit)))
      slots st.slocals
  in
  let compile_for key =
    List.map (compile_event ctx locals) (Semantics.events_for m st key)
  in
  let recv =
    List.map
      (fun (ty, dest, ev) ->
        let ec, vc = compile_event ctx locals ev in
        ({ rc_typ = ty; rc_dest = dest; rc_ev = ec }, (ty, dest, vc)))
      (Semantics.recv_arms m st)
  in
  let enter = compile_for Semantics.Enter in
  let exit_ = compile_for Semantics.Exit in
  let realloc = compile_for Semantics.Realloc in
  let triggers =
    Array.map (fun name -> (name, compile_for (Semantics.Var name))) trig_names
  in
  ( { st_name = st.sname;
      st_local_names = local_names;
      st_nums = Array.exists Fun.id locals.ll_typed;
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

(* Layout of a function, before any body is compiled. *)
let declare_func ~append ~hints (fd : Ast.func_decl) : fn_info =
  let lay = new_layout () in
  let params =
    Array.of_list
      (List.map (fun (t, n) -> (n, layout_add_bound lay n (is_num_typ t))) fd.fparams)
  in
  collect_decls lay fd.fbody;
  collect_appends lay ~append ~hints fd.fbody;
  let frame = Array.make lay.l_size absent in
  let tagged =
    Array.of_list
      (List.filter_map
         (fun (n, slot) -> if slot_typed lay n then Some slot else None)
         (Array.to_list params))
  in
  Array.iter (fun slot -> frame.(slot) <- num_tag) tagged;
  { fi_name = fd.fname; fi_layout = lay; fi_params = params; fi_frame = frame;
    fi_tagged = tagged; fi_nums = layout_nums lay; fi_body = ref nop_stmt }

let compile_func ctx (fd : Ast.func_decl) : func_c * vfunc =
  let fi = Hashtbl.find ctx.cx_funcs fd.fname in
  (* function bodies resolve non-frame names dynamically: the state the
     machine occupies at call time is unknown *)
  let scope = { sc_frame = Some fi.fi_layout; sc_locals = None } in
  let body = compile_stmts ctx scope fd.fbody in
  fi.fi_body := body;
  ( { fn_name = fd.fname;
      fn_nparams = Array.length fi.fi_params;
      fn_param_slots = Array.map snd fi.fi_params;
      fn_frame = fi.fi_frame;
      fn_nums = fi.fi_nums;
      fn_body = body },
    { vfn_params = Array.to_list fi.fi_params;
      vfn_frame = vframe_of_layout fi.fi_layout;
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
     (duplicates share a slot, later initializer wins; a slot is typed
     when every declaration is numeric) *)
  let global_slots = Hashtbl.create 16 in
  let typed = Hashtbl.create 16 in
  let n_globals = ref 0 in
  let slot_of name numeric =
    Hashtbl.replace typed name
      (numeric && Option.value ~default:true (Hashtbl.find_opt typed name));
    match Hashtbl.find_opt global_slots name with
    | Some i -> i
    | None ->
        let i = !n_globals in
        incr n_globals;
        Hashtbl.replace global_slots name i;
        i
  in
  let var_slots =
    List.map (fun (v : Ast.var_decl) -> slot_of v.vname (is_num_typ v.vtyp)) m.mvars
  in
  let trig_slots = List.map (fun (td : Ast.trig_decl) -> slot_of td.tname false) m.mtrigs in
  let global_names = Array.make !n_globals "" in
  Hashtbl.iter (fun name i -> global_names.(i) <- name) global_slots;
  let global_typed = Array.map (fun name -> Hashtbl.find typed name) global_names in
  let trig_hook = Hashtbl.create 4 in
  List.iter
    (fun (td : Ast.trig_decl) -> Hashtbl.replace trig_hook td.tname td.ttyp)
    m.mtrigs;
  (* [append] is the built-in unless an Almanac function shadows it *)
  let append =
    not (List.exists (fun (fd : Ast.func_decl) -> fd.fname = "append") program.funcs)
  in
  let hints = ref 0 in
  let fn_infos = Hashtbl.create 8 in
  List.iter
    (fun (fd : Ast.func_decl) ->
      Hashtbl.replace fn_infos fd.fname (declare_func ~append ~hints fd))
    program.funcs;
  let ctx =
    { cx_global_slots = global_slots;
      cx_global_typed = global_typed;
      cx_trig_hook = trig_hook;
      cx_funcs = fn_infos;
      cx_calls = [];
      cx_n_calls = 0;
      cx_fused = 0;
      cx_append = append;
      cx_hints = hints;
      cx_list_sites = 0 }
  in
  let init_scope = { sc_frame = None; sc_locals = None } in
  let var_inits =
    List.map2
      (fun slot (v : Ast.var_decl) ->
        let code =
          match v.vinit with
          | Some e -> compile_expr ctx init_scope e
          | None ->
              let d = Value.default_of_typ v.vtyp in
              fun _ -> d
        in
        let vinit =
          match v.vinit with Some e -> Vexpr e | None -> Vdefault v.vtyp
        in
        ((slot, v.vname, v.is_external, code), (slot, v.vname, v.is_external, vinit)))
      var_slots m.mvars
  in
  let trig_inits =
    List.map2
      (fun slot (td : Ast.trig_decl) ->
        let code =
          match td.tinit with
          | Some e -> compile_expr ctx init_scope e
          | None -> fun _ -> Value.Unit
        in
        let vinit = match td.tinit with Some e -> Vexpr e | None -> Vunit in
        ((slot, td.tname, false, code), (slot, td.tname, false, vinit)))
      trig_slots m.mtrigs
  in
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
    c_global_nums = Array.exists Fun.id global_typed;
    c_global_inits = Array.of_list (List.map fst var_inits @ List.map fst trig_inits);
    c_states = states;
    c_state_ids = state_ids;
    c_trig_ids = trig_ids;
    c_n_trigs = Array.length trig_names;
    c_funcs = funcs;
    c_call_sites = Array.of_list (List.rev ctx.cx_calls);
    c_plan = plan;
    c_fused = ctx.cx_fused;
    c_list_sites = ctx.cx_list_sites;
    c_n_hints = !hints }
