(* Bounded symbolic execution of Almanac handler bodies.

   A handler (event body, initializer sequence, function body) is run
   over symbolic inputs: machine variables, state locals and trigger
   bindings become symbolic terms instead of concrete [Value.t]s, and
   every branch on a symbolic condition forks the path, accumulating the
   branch decision in a path condition.  The result is a finite set of
   paths, each carrying the final (symbolic) store, the ordered effect
   trace (sends, host calls, trigger-write notifications) and the
   pending transit — everything observable about one handler firing.

   Two scoping semantics are provided behind one executor, mirroring the
   two engines:

   - {!Istore}: the interpreter's string-keyed scope chain
     (event frame -> state locals -> machine globals), hashtable
     semantics ({!Interp});
   - {!Pstore}: the compiled engine's slot-indexed arrays with the
     [absent] sentinel and per-slot presence checks, driven by the
     {!Compile.plan} the compiler records — layouts, bound sets and
     dispatch decisions are taken from the plan, not re-derived, so a
     compilation bug is reproduced faithfully ({!Exec}).

   {!Equiv} runs both sides and compares path-by-path; {!Reach} runs the
   interpreter side against abstract stores.  There is no constraint
   solver: feasibility is decided by polarity contradiction and interval
   reasoning over atoms comparing a term with a constant, which is a
   sound over-approximation (infeasible paths may survive, feasible ones
   are never dropped), exactly what translation validation needs. *)

let fail = Host.fail

module SMap = Map.Make (String)
module IMap = Map.Make (Int)

(* ------------------------------------------------------------------ *)
(* Symbolic values                                                     *)
(* ------------------------------------------------------------------ *)

type sym =
  | Con of Value.t  (* concrete *)
  | Svar of string * Ast.typ option  (* free symbolic input *)
  | Sfield of sym * string
  | Sapp of string * sym list  (* pure call, uninterpreted *)
  | Sopaque of string * int  (* result of the n-th effectful call *)
  | Sunop of Ast.unop * sym
  | Sbinop of Ast.binop * sym * sym
  | Slist of sym list  (* known spine, symbolic elements *)
  | Sstats of sym array
  | Sstruct of string * (string * sym) list

(* Smart constructors: collapse to [Con] when fully concrete, so the
   "all arguments concrete" fast paths below fire. *)
let slist elems =
  let concrete =
    List.for_all (function Con _ -> true | _ -> false) elems
  in
  if concrete then
    Con (Value.List (List.map (function Con v -> v | _ -> assert false) elems))
  else Slist elems

let sstats elems =
  let concrete =
    Array.for_all (function Con (Value.Num _) -> true | _ -> false) elems
  in
  if concrete then
    Con
      (Value.Stats
         (Array.map
            (function Con (Value.Num f) -> f | _ -> assert false)
            elems))
  else Sstats elems

let sstruct name fields =
  let concrete = List.for_all (function _, Con _ -> true | _ -> false) fields in
  if concrete then
    Con
      (Value.Struct
         ( name,
           List.map (function f, Con v -> (f, v) | _ -> assert false) fields ))
  else Sstruct (name, fields)

(* elements of a list value as syms, when the spine is known *)
let spine = function
  | Con (Value.List l) -> Some (List.map (fun v -> Con v) l)
  | Slist l -> Some l
  | _ -> None

let rec sym_to_string = function
  | Con v -> Value.to_string v
  | Svar (n, _) -> n
  | Sfield (b, f) -> Printf.sprintf "%s.%s" (sym_to_string b) f
  | Sapp (f, args) ->
      Printf.sprintf "%s(%s)" f
        (String.concat ", " (List.map sym_to_string args))
  | Sopaque (f, i) -> Printf.sprintf "%s#%d" f i
  | Sunop (Ast.Not, a) -> Printf.sprintf "not %s" (sym_to_string a)
  | Sunop (Ast.Neg, a) -> Printf.sprintf "-%s" (sym_to_string a)
  | Sbinop (op, a, b) ->
      Printf.sprintf "(%s %s %s)" (sym_to_string a) (Ast.binop_to_string op)
        (sym_to_string b)
  | Slist l ->
      Printf.sprintf "[%s]" (String.concat ", " (List.map sym_to_string l))
  | Sstats a ->
      Printf.sprintf "stats[%s]"
        (String.concat ", " (Array.to_list (Array.map sym_to_string a)))
  | Sstruct (n, fields) ->
      Printf.sprintf "%s{%s}" n
        (String.concat ", "
           (List.map (fun (f, s) -> f ^ "=" ^ sym_to_string s) fields))

(* ------------------------------------------------------------------ *)
(* Path conditions and feasibility                                     *)
(* ------------------------------------------------------------------ *)

(* An atom [(t, b)] asserts that [t] is truthy iff [b].  [Not] is
   normalized away so syntactic variants land on the same atom. *)
let rec norm_atom (t, b) =
  match t with Sunop (Ast.Not, x) -> norm_atom (x, not b) | _ -> (t, b)

let atom_to_string (t, b) =
  if b then sym_to_string t else Printf.sprintf "not %s" (sym_to_string t)

let pc_to_string pc =
  match List.rev pc with
  | [] -> "(all inputs)"
  | atoms -> String.concat " && " (List.map atom_to_string atoms)

(* Interval with strictness flags; [None] bound = unbounded. *)
type iv = { lo : float; lo_s : bool; hi : float; hi_s : bool }

let iv_full = { lo = neg_infinity; lo_s = false; hi = infinity; hi_s = false }

let iv_empty iv =
  iv.lo > iv.hi || (iv.lo = iv.hi && (iv.lo_s || iv.hi_s))

let iv_meet a b =
  let lo, lo_s =
    if a.lo > b.lo then (a.lo, a.lo_s)
    else if b.lo > a.lo then (b.lo, b.lo_s)
    else (a.lo, a.lo_s || b.lo_s)
  in
  let hi, hi_s =
    if a.hi < b.hi then (a.hi, a.hi_s)
    else if b.hi < a.hi then (b.hi, b.hi_s)
    else (a.hi, a.hi_s || b.hi_s)
  in
  { lo; lo_s; hi; hi_s }

(* A-priori range facts about uninterpreted terms. *)
let term_fact = function
  | Sapp (f, _) -> (
      match Builtins.find f with
      | Some { at_least = Some lo; _ } -> { iv_full with lo }
      | _ -> iv_full)
  | _ -> iv_full

(* Decompose a comparison atom into (term, op, constant); the comparison
   is normalized so the constant is on the right. *)
let comparison (t, b) =
  let flip = function
    | Ast.Lt -> Ast.Gt
    | Ast.Gt -> Ast.Lt
    | Ast.Le -> Ast.Ge
    | Ast.Ge -> Ast.Le
    | op -> op
  in
  let negate = function
    | Ast.Lt -> Ast.Ge
    | Ast.Gt -> Ast.Le
    | Ast.Le -> Ast.Gt
    | Ast.Ge -> Ast.Lt
    | op -> op  (* Eq/Neq handled by caller *)
  in
  match t with
  | Sbinop (((Ast.Lt | Ast.Gt | Ast.Le | Ast.Ge | Ast.Eq | Ast.Neq) as op), x, y)
    -> (
      let op, x, c =
        match (x, y) with
        | x, Con (Value.Num c) -> (op, x, Some c)
        | Con (Value.Num c), y -> (flip op, y, Some c)
        | _ -> (op, x, None)
      in
      match c with
      | None -> None
      | Some c ->
          let op =
            if b then op
            else
              match op with
              | Ast.Eq -> Ast.Neq
              | Ast.Neq -> Ast.Eq
              | op -> negate op
          in
          Some (x, op, c))
  | _ -> None

(* Syntactic equality of terms. *)
let sym_equal (a : sym) (b : sym) = compare a b = 0

let feasible (pc : (sym * bool) list) : bool =
  (* 1. the same term asserted with both polarities *)
  let contradiction =
    List.exists
      (fun (t, b) -> List.exists (fun (t', b') -> b <> b' && sym_equal t t') pc)
      pc
  in
  if contradiction then false
  else begin
    (* 2. trivially decidable comparisons between equal terms *)
    let trivially_false =
      List.exists
        (fun (t, b) ->
          match t with
          | Sbinop ((Ast.Eq | Ast.Le | Ast.Ge), x, y) when sym_equal x y ->
              not b
          | Sbinop ((Ast.Neq | Ast.Lt | Ast.Gt), x, y) when sym_equal x y -> b
          | _ -> false)
        pc
    in
    if trivially_false then false
    else begin
      (* 3. interval reasoning over comparisons with constants *)
      let ivs : (sym * iv) list ref = ref [] in
      let excl : (sym * float) list ref = ref [] in
      let get t =
        match List.find_opt (fun (t', _) -> sym_equal t t') !ivs with
        | Some (_, iv) -> iv
        | None -> term_fact t
      in
      let set t iv =
        ivs := (t, iv) :: List.filter (fun (t', _) -> not (sym_equal t t')) !ivs
      in
      List.iter
        (fun atom ->
          match comparison atom with
          | None -> ()
          | Some (x, op, c) -> (
              match op with
              | Ast.Lt -> set x (iv_meet (get x) { iv_full with hi = c; hi_s = true })
              | Ast.Le -> set x (iv_meet (get x) { iv_full with hi = c })
              | Ast.Gt -> set x (iv_meet (get x) { iv_full with lo = c; lo_s = true })
              | Ast.Ge -> set x (iv_meet (get x) { iv_full with lo = c })
              | Ast.Eq ->
                  set x (iv_meet (get x) { lo = c; lo_s = false; hi = c; hi_s = false })
              | Ast.Neq -> excl := (x, c) :: !excl
              | _ -> ()))
        pc;
      (not (List.exists (fun (_, iv) -> iv_empty iv) !ivs))
      && not
           (List.exists
              (fun (x, c) ->
                let iv = get x in
                iv.lo = c && iv.hi = c && not iv.lo_s && not iv.hi_s)
              !excl)
    end
  end

(* ------------------------------------------------------------------ *)
(* Stores                                                              *)
(* ------------------------------------------------------------------ *)

(* Interpreter-semantics store: string-keyed maps standing in for the
   hashtables; a missing key is an unbound name. *)
type istore = {
  i_frames : sym SMap.t list;
  i_locals : sym SMap.t;
  i_globals : sym SMap.t;
}

(* Plan-semantics store: slot-indexed cells; a missing key holds the
   [Compile.absent] sentinel. *)
type pcells = sym IMap.t

type pstore = {
  p_frame : (Compile.vframe * pcells) option;
  p_sc_locals : (string * int) list option;
      (* static state-local table; [None] = dynamic resolution *)
  p_locals : pcells;
  p_locals_names : string array;
  p_globals : pcells;
  p_global_tbl : (string * int) list;
}

type store = Istore of istore | Pstore of pstore

let mk_istore ~globals ~locals =
  Istore
    { i_frames = [];
      i_locals = SMap.of_seq (List.to_seq locals);
      i_globals = SMap.of_seq (List.to_seq globals) }

let mk_pstore ~(plan : Compile.plan) ~globals ~(state : Compile.vstate) ~locals
    =
  let gcells =
    List.fold_left
      (fun acc (name, slot) ->
        match List.assoc_opt name globals with
        | Some v -> IMap.add slot v acc
        | None -> acc)
      IMap.empty plan.v_global_slots
  in
  let lcells = ref IMap.empty in
  Array.iteri
    (fun i n ->
      match List.assoc_opt n locals with
      | Some v -> lcells := IMap.add i v !lcells
      | None -> ())
    state.vs_local_names;
  Pstore
    { p_frame = None;
      p_sc_locals = None;
      p_locals = !lcells;
      p_locals_names = state.vs_local_names;
      p_globals = gcells;
      p_global_tbl = plan.v_global_slots }

(* -- reads ---------------------------------------------------------- *)

let unbound name = Error (Printf.sprintf "unbound variable %s" name)

let iread st name =
  let rec go = function
    | [] -> (
        match SMap.find_opt name st.i_locals with
        | Some v -> Ok v
        | None -> (
            match SMap.find_opt name st.i_globals with
            | Some v -> Ok v
            | None -> unbound name))
    | f :: rest -> (
        match SMap.find_opt name f with Some v -> Ok v | None -> go rest)
  in
  go st.i_frames

let pglobal_read st name =
  match List.assoc_opt name st.p_global_tbl with
  | Some g -> (
      match IMap.find_opt g st.p_globals with
      | Some v -> Ok v
      | None -> unbound name)
  | None -> unbound name

let pouter_read st name =
  match st.p_sc_locals with
  | Some tbl -> (
      match List.assoc_opt name tbl with
      | Some i -> (
          match IMap.find_opt i st.p_locals with
          | Some v -> Ok v
          | None -> pglobal_read st name)
      | None -> pglobal_read st name)
  | None ->
      let n = Array.length st.p_locals_names in
      let rec go i =
        if i >= n then pglobal_read st name
        else if String.equal st.p_locals_names.(i) name then
          match IMap.find_opt i st.p_locals with
          | Some v -> Ok v
          | None -> pglobal_read st name
        else go (i + 1)
      in
      go 0

let pread st name =
  match st.p_frame with
  | Some (lay, cells) -> (
      match List.assoc_opt name lay.Compile.vf_slots with
      | Some i ->
          if List.mem name lay.Compile.vf_bound then
            match IMap.find_opt i cells with
            | Some v -> Ok v
            | None ->
                (* a mutated/buggy layout marked the name bound without
                   binding it: the real engine reads the sentinel *)
                Ok (Con Compile.absent)
          else (
            match IMap.find_opt i cells with
            | Some v -> Ok v
            | None -> pouter_read st name)
      | None -> pouter_read st name)
  | None -> pouter_read st name

let store_read store name =
  match store with Istore st -> iread st name | Pstore st -> pread st name

(* -- writes --------------------------------------------------------- *)

let unbound_w name =
  Error (Printf.sprintf "assignment to unbound variable %s" name)

(* [hooks]: trigger-variable types; a write to a hooked global notifies
   the host (returned so the caller can record the effect). *)
let iwrite hooks st name v =
  let rec go acc = function
    | [] ->
        if SMap.mem name st.i_locals then
          Ok
            ( { st with i_locals = SMap.add name v st.i_locals;
                i_frames = List.rev acc },
              None )
        else if SMap.mem name st.i_globals then
          Ok
            ( { st with i_globals = SMap.add name v st.i_globals;
                i_frames = List.rev acc },
              List.assoc_opt name hooks )
        else unbound_w name
    | f :: rest ->
        if SMap.mem name f then
          Ok
            ( { st with i_frames = List.rev_append acc (SMap.add name v f :: rest) },
              None )
        else go (f :: acc) rest
  in
  go [] st.i_frames

let pglobal_write hooks st name v =
  match List.assoc_opt name st.p_global_tbl with
  | Some g ->
      if IMap.mem g st.p_globals then
        Ok
          ( { st with p_globals = IMap.add g v st.p_globals },
            List.assoc_opt name hooks )
      else unbound_w name
  | None -> unbound_w name

let pouter_write hooks st name v =
  match st.p_sc_locals with
  | Some tbl -> (
      match List.assoc_opt name tbl with
      | Some i ->
          if IMap.mem i st.p_locals then
            Ok ({ st with p_locals = IMap.add i v st.p_locals }, None)
          else pglobal_write hooks st name v
      | None -> pglobal_write hooks st name v)
  | None ->
      let n = Array.length st.p_locals_names in
      let rec go i =
        if i >= n then pglobal_write hooks st name v
        else if String.equal st.p_locals_names.(i) name then
          if IMap.mem i st.p_locals then
            Ok ({ st with p_locals = IMap.add i v st.p_locals }, None)
          else pglobal_write hooks st name v
        else go (i + 1)
      in
      go 0

let pwrite hooks st name v =
  match st.p_frame with
  | Some (lay, cells) -> (
      let frame_write () =
        Ok
          ( { st with p_frame = Some (lay, IMap.add (List.assoc name lay.Compile.vf_slots) v cells) },
            None )
      in
      match List.assoc_opt name lay.Compile.vf_slots with
      | Some i ->
          if List.mem name lay.Compile.vf_bound then frame_write ()
          else if IMap.mem i cells then frame_write ()
          else pouter_write hooks st name v
      | None -> pouter_write hooks st name v)
  | None -> pouter_write hooks st name v

let store_write hooks store name v =
  match store with
  | Istore st ->
      Result.map (fun (st, h) -> (Istore st, h)) (iwrite hooks st name v)
  | Pstore st ->
      Result.map (fun (st, h) -> (Pstore st, h)) (pwrite hooks st name v)

(* -- declarations --------------------------------------------------- *)

let store_decl store name v =
  match store with
  | Istore st -> (
      match st.i_frames with
      | f :: rest ->
          Ok (Istore { st with i_frames = SMap.add name v f :: rest })
      | [] -> Ok (Istore { st with i_locals = SMap.add name v st.i_locals }))
  | Pstore st -> (
      match st.p_frame with
      | Some (lay, cells) -> (
          match List.assoc_opt name lay.Compile.vf_slots with
          | Some i ->
              Ok (Pstore { st with p_frame = Some (lay, IMap.add i v cells) })
          | None ->
              Error
                (Printf.sprintf "internal: no frame slot for %s in plan" name))
      | None ->
          Ok (Pstore { st with p_locals = IMap.add 0 v st.p_locals }))

(* -- inspection ----------------------------------------------------- *)

let peek_global store name =
  match store with
  | Istore st -> SMap.find_opt name st.i_globals
  | Pstore st -> (
      match List.assoc_opt name st.p_global_tbl with
      | Some g -> IMap.find_opt g st.p_globals
      | None -> None)

let peek_local store name =
  match store with
  | Istore st -> SMap.find_opt name st.i_locals
  | Pstore st ->
      let n = Array.length st.p_locals_names in
      let rec go i =
        if i >= n then None
        else if String.equal st.p_locals_names.(i) name then
          IMap.find_opt i st.p_locals
        else go (i + 1)
      in
      go 0

(* ------------------------------------------------------------------ *)
(* Paths                                                               *)
(* ------------------------------------------------------------------ *)

type starget = To_harvester | To_machine of string * sym option

type effect_ =
  | Esend of starget * sym
  | Ecall of string * sym list  (* effectful host/builtin call, in order *)
  | Etrig of string * Ast.trigger_type * sym  (* trigger-variable write *)

let starget_to_string = function
  | To_harvester -> "harvester"
  | To_machine (m, None) -> m
  | To_machine (m, Some d) -> Printf.sprintf "%s@%s" m (sym_to_string d)

let effect_to_string = function
  | Esend (t, v) ->
      Printf.sprintf "send %s to %s" (sym_to_string v) (starget_to_string t)
  | Ecall (f, args) ->
      Printf.sprintf "%s(%s)" f
        (String.concat ", " (List.map sym_to_string args))
  | Etrig (n, _, v) -> Printf.sprintf "retune %s = %s" n (sym_to_string v)

type pend = Pconc of string * Ast.pos | Psym of sym * Ast.pos

type outcome =
  | Running  (* still executing / completed normally *)
  | Err of string  (* runtime failure *)
  | Aviol of Ast.pos  (* assert(..) can fail here *)
  | Unknown of string  (* a budget was exhausted; reason names the knob *)

type path = {
  pc : (sym * bool) list;  (* newest first *)
  store : store;
  effects : effect_ list;  (* newest first *)
  pending : pend option;
  outcome : outcome;
  ret : sym option;  (* a Return is unwinding *)
  n_opaque : int;
  depth : int;  (* function-inline depth *)
  obligations : (string * sym * sym * Ast.pos) list;
      (* (builtin, container, symbolic index, site) for V404 *)
  cur_pos : Ast.pos;
}

let init_path store =
  { pc = [];
    store;
    effects = [];
    pending = None;
    outcome = Running;
    ret = None;
    n_opaque = 0;
    depth = 0;
    obligations = [];
    cur_pos = Ast.no_pos }

let halted p = p.outcome <> Running || p.ret <> None

let perr p msg = { p with outcome = Err msg }
let punknown p reason = { p with outcome = Unknown reason }

(* ------------------------------------------------------------------ *)
(* Execution context                                                   *)
(* ------------------------------------------------------------------ *)

type budget = { max_paths : int; max_unroll : int; max_inline : int }

let default_budget = { max_paths = 768; max_unroll = 8; max_inline = 16 }

(* concrete-condition loops get a generous fixed budget; symbolic ones
   are bounded by [max_unroll] forks *)
let max_concrete_iters = 1024

type funcs =
  | Ifuncs of (string * Ast.func_decl) list  (* interpreter side *)
  | Pfuncs of (string * Compile.vfunc) list  (* plan side *)

type ctx = {
  cx_funcs : funcs;
  cx_host : string -> bool;  (* names the deployment host serves *)
  cx_hooks : (string * Ast.trigger_type) list;  (* trigger variables *)
  cx_budget : budget;
  mutable cx_paths : int;  (* forks taken so far in this run *)
}

let make_ctx ?(budget = default_budget) ?(host_builtins = []) ~funcs ~hooks ()
    =
  { cx_funcs = funcs;
    cx_host = (fun n -> List.mem n host_builtins);
    cx_hooks = hooks;
    cx_budget = budget;
    cx_paths = 0 }

(* ------------------------------------------------------------------ *)
(* Forking                                                             *)
(* ------------------------------------------------------------------ *)

let add_atom p atom =
  let t, b = norm_atom atom in
  if List.exists (fun (t', b') -> b = b' && sym_equal t t') p.pc then Some p
  else
    let pc = (t, b) :: p.pc in
    if feasible pc then Some { p with pc } else None

(* Fork on the truthiness of a symbolic term: returns the feasible
   branches tagged with the assumed truth value.  When the path budget
   is exhausted the path degrades to a single [Unknown]. *)
let fork_bool ctx p t : (path * bool) list =
  let bt = add_atom p (t, true) in
  let bf = add_atom p (t, false) in
  match (bt, bf) with
  | Some pt, None -> [ (pt, true) ]
  | None, Some pf -> [ (pf, false) ]
  | None, None -> []
  | Some pt, Some pf ->
      if ctx.cx_paths >= ctx.cx_budget.max_paths then
        [ (punknown p "path budget exhausted (--max-paths)", true) ]
      else begin
        ctx.cx_paths <- ctx.cx_paths + 1;
        [ (pt, true); (pf, false) ]
      end

(* ------------------------------------------------------------------ *)
(* Concrete folding helpers                                            *)
(* ------------------------------------------------------------------ *)

let num f = Value.Num f

(* ------------------------------------------------------------------ *)
(* Expression evaluation                                               *)
(* ------------------------------------------------------------------ *)

(* Evaluation of an expression over a path forks into a list of
   (path, value) results; paths that error carry [Unit] and are not
   evaluated further. *)

let unit_s = Con Value.Unit

let ( let* ) (results : (path * sym) list) f : (path * sym) list =
  List.concat_map
    (fun (p, s) -> if halted p then [ (p, unit_s) ] else f (p, s))
    results

(* Run [f] on every live path of a statement-level result. *)
let bind_paths (paths : path list) (f : path -> path list) : path list =
  List.concat_map (fun p -> if halted p then [ p ] else f p) paths

let catch_conc p (f : unit -> sym) : path * sym =
  match f () with
  | s -> (p, s)
  | exception Host.Runtime_error m -> (perr p m, unit_s)
  | exception Value.Type_error m -> (perr p m, unit_s)

let rec eval ctx p (e : Ast.expr) : (path * sym) list =
  if halted p then [ (p, unit_s) ]
  else
    match e with
    | Ast.Bool b -> [ (p, Con (Value.Bool b)) ]
    | Ast.Int i -> [ (p, Con (num (float_of_int i))) ]
    | Ast.Float f -> [ (p, Con (num f)) ]
    | Ast.String s -> [ (p, Con (Value.Str s)) ]
    | Ast.AnyLit ->
        [ (p, Con (Value.FilterV (Farm_net.Filter.atom Farm_net.Filter.Any)))
        ]
    | Ast.Var v -> (
        match store_read p.store v with
        | Ok s -> [ (p, s) ]
        | Error m -> [ (perr p m, unit_s) ])
    | Ast.Field (b, f) ->
        let* p, s = eval ctx p b in
        [ eval_field p s f ]
    | Ast.Call (fname, args) -> eval_call ctx p fname args
    | Ast.Unop (op, a) ->
        let* p, s = eval ctx p a in
        [ (match s with
          | Con v -> catch_conc p (fun () -> Con (Semantics.unop op v))
          | s -> (p, Sunop (op, s))) ]
    | Ast.Binop (op, a, b) -> eval_binop ctx p op a b
    | Ast.FilterAtom (head, arg) ->
        let* p, s = eval ctx p arg in
        [ (match s with
          | Con v ->
              catch_conc p (fun () ->
                  Con (Value.FilterV (Builtins.filter_atom_value head v)))
          | s -> (p, Sapp ("%filter_atom", [ s ]))) ]
    | Ast.StructLit (name, fields) ->
        let rec go p acc = function
          | [] -> [ (p, sstruct name (List.rev acc)) ]
          | (f, e) :: rest ->
              let* p, s = eval ctx p e in
              go p ((f, s) :: acc) rest
        in
        go p [] fields
    | Ast.ListLit es ->
        let rec go p acc = function
          | [] -> [ (p, slist (List.rev acc)) ]
          | e :: rest ->
              let* p, s = eval ctx p e in
              go p (s :: acc) rest
        in
        go p [] es

and eval_field p s f : path * sym =
  match s with
  | Con v -> catch_conc p (fun () -> Con (Value.field v f))
  | Sstruct (_, fields) -> (
      match List.assoc_opt f fields with
      | Some v -> (p, v)
      | None -> (perr p (Printf.sprintf "unknown field %s" f), unit_s))
  | s -> (p, Sfield (s, f))

and eval_binop ctx p op a b : (path * sym) list =
  match op with
  | Ast.And | Ast.Or -> (
      let* p, sa = eval ctx p a in
      match sa with
      | Con va -> (
          match Semantics.logic_left op va with
          | Some r -> [ (p, Con r) ]
          | None ->
              let* p, sb = eval ctx p b in
              [ (match (va, sb) with
                | _, Con vb ->
                    catch_conc p (fun () -> Con (Semantics.logic_right op va vb))
                | Value.Bool _, sb -> (p, sb)
                | _ -> (p, Sbinop (op, sa, sb))) ]
          | exception Host.Runtime_error m -> [ (perr p m, unit_s) ])
      | sa ->
          (* symbolic boolean: fork, preserving short-circuit effects *)
          let decided = op = Ast.Or in
          List.concat_map
            (fun (p, assumed) ->
              if assumed = decided then [ (p, Con (Value.Bool decided)) ]
              else
                let* p, sb = eval ctx p b in
                [ (p, sb) ])
            (fork_bool ctx p sa))
  | op ->
      let* p, sa = eval ctx p a in
      let* p, sb = eval ctx p b in
      [ (match (sa, sb) with
        | Con va, Con vb ->
            catch_conc p (fun () -> Con (Semantics.binop op va vb))
        | _ -> (
            match op with
            | Ast.Eq when sym_equal sa sb -> (p, Con (Value.Bool true))
            | Ast.Neq when sym_equal sa sb -> (p, Con (Value.Bool false))
            | _ -> (p, Sbinop (op, sa, sb)))) ]

and eval_args ctx p args : (path * sym list) list =
  let rec go p acc = function
    | [] -> [ (p, List.rev acc) ]
    | e :: rest ->
        List.concat_map
          (fun (p, s) ->
            if halted p then [ (p, []) ] else go p (s :: acc) rest)
          (eval ctx p e)
  in
  go p [] args

and eval_call ctx p fname args : (path * sym) list =
  List.concat_map
    (fun (p, argv) ->
      if halted p then [ (p, unit_s) ]
      else if ctx.cx_host fname then
        (* deployment host builtin: an effect with an opaque result *)
        [ ( { p with
              effects = Ecall (fname, argv) :: p.effects;
              n_opaque = p.n_opaque + 1 },
            Sopaque (fname, p.n_opaque) ) ]
      else
        match user_func ctx fname with
        | Some f -> inline_func ctx p fname f argv
        | None -> (
            match Builtins.find fname with
            | Some { runs = Builtins.Pure e; _ } ->
                if String.equal fname "assert" then eval_assert ctx p argv
                else eval_pure p fname e argv
            (* stable within one firing: an uninterpreted term *)
            | Some { stable = true; _ } -> [ (p, Sapp (fname, argv)) ]
            | Some { runs = Builtins.Engine _; _ } ->
                [ ( { p with effects = Ecall (fname, argv) :: p.effects },
                    unit_s ) ]
            | Some { runs = Builtins.Soil; _ } | None ->
                [ (perr p (Printf.sprintf "unknown function %s" fname), unit_s) ]))
    (eval_args ctx p args)

and user_func ctx fname =
  match ctx.cx_funcs with
  | Ifuncs fs -> Option.map (fun f -> `I f) (List.assoc_opt fname fs)
  | Pfuncs fs -> Option.map (fun f -> `P f) (List.assoc_opt fname fs)

and eval_assert ctx p argv : (path * sym) list =
  match argv with
  | [ Con v ] ->
      [ (match Value.truthy v with
        | true -> (p, unit_s)
        | false -> ({ p with outcome = Aviol p.cur_pos }, unit_s)
        | exception Value.Type_error m -> (perr p m, unit_s)) ]
  | [ s ] ->
      List.map
        (fun (p, assumed) ->
          if assumed then (p, unit_s)
          else ({ p with outcome = Aviol p.cur_pos }, unit_s))
        (fork_bool ctx p s)
  | _ -> [ (perr p "expected 1 argument", unit_s) ]

and eval_pure p fname (e : Builtins.entry) argv : (path * sym) list =
  let all_concrete =
    List.for_all (function Con _ -> true | _ -> false) argv
  in
  if all_concrete then
    let vals = List.map (function Con v -> v | _ -> assert false) argv in
    [ catch_conc p (fun () -> Con (e.call vals)) ]
  else
    (* structural folds over known spines keep loops over lists/stats
       concrete; everything else stays uninterpreted *)
    let dflt () = (p, Sapp (fname, argv)) in
    let obligation container index p =
      { p with
        obligations = (fname, container, index, p.cur_pos) :: p.obligations }
    in
    [ (match (fname, argv) with
      | "size", [ l ] -> (
          match spine l with
          | Some els -> (p, Con (num (float_of_int (List.length els))))
          | None -> dflt ())
      | "is_list_empty", [ l ] -> (
          match spine l with
          | Some els -> (p, Con (Value.Bool (els = [])))
          | None -> dflt ())
      | "append", [ l; x ] -> (
          match spine l with
          | Some els -> (p, slist (els @ [ x ]))
          | None -> dflt ())
      | "nth", [ l; Con i ] -> (
          match spine l with
          | Some els -> catch_conc p (fun () -> Builtins.nth_in els (Builtins.index i))
          | None -> dflt ())
      | "nth", [ l; i ] -> (obligation l i p, Sapp (fname, argv))
      | "set_nth", [ l; Con i; x ] -> (
          match spine l with
          | Some els ->
              catch_conc p (fun () ->
                  slist (Builtins.set_nth_in els (Builtins.index i) x))
          | None -> dflt ())
      | "set_nth", [ l; i; _ ] -> (obligation l i p, Sapp (fname, argv))
      | "stat", [ Sstats a; Con i ] ->
          catch_conc p (fun () ->
              let i = Builtins.index i in
              Builtins.check_stat i (Array.length a);
              a.(i))
      | "stat", [ _; Con _ ] -> dflt ()
      | "stat", [ s; i ] -> (obligation s i p, Sapp (fname, argv))
      | "stats_size", [ Sstats a ] ->
          (p, Con (num (float_of_int (Array.length a))))
      | "stats_sum", [ Sstats a ] ->
          ( p,
            Array.fold_left
              (fun acc x ->
                match (acc, x) with
                | Con va, Con vb -> Con (Semantics.arith Ast.Add va vb)
                | _ -> Sbinop (Ast.Add, acc, x))
              (Con (num 0.)) a )
      | _ -> dflt ()) ]

and inline_func ctx p fname f argv : (path * sym) list =
  if p.depth >= ctx.cx_budget.max_inline then
    [ (punknown p "function inline depth exhausted (--max-paths)", unit_s) ]
  else
    match f with
    | `I (fd : Ast.func_decl) ->
        if List.length fd.fparams <> List.length argv then
          [ ( perr p
                (Printf.sprintf "%s expects %d arguments, got %d" fname
                   (List.length fd.fparams) (List.length argv)),
              unit_s ) ]
        else
          let st = match p.store with Istore st -> st | _ -> assert false in
          let frame =
            List.fold_left2
              (fun acc (_, n) v -> SMap.add n v acc)
              SMap.empty fd.fparams argv
          in
          let saved = st.i_frames in
          let p' =
            { p with
              store = Istore { st with i_frames = [ frame ] };
              depth = p.depth + 1 }
          in
          List.map
            (fun (p, s) ->
              let st = match p.store with Istore st -> st | _ -> assert false in
              ( { p with store = Istore { st with i_frames = saved };
                  depth = p.depth - 1 },
                s ))
            (finish_call (exec_stmts ctx p' fd.fbody))
    | `P (vf : Compile.vfunc) ->
        if List.length vf.vfn_params <> List.length argv then
          [ ( perr p
                (Printf.sprintf "%s expects %d arguments, got %d" fname
                   (List.length vf.vfn_params) (List.length argv)),
              unit_s ) ]
        else
          let st = match p.store with Pstore st -> st | _ -> assert false in
          let cells =
            List.fold_left2
              (fun acc (_, slot) v -> IMap.add slot v acc)
              IMap.empty vf.vfn_params argv
          in
          let saved_frame = st.p_frame and saved_sc = st.p_sc_locals in
          let p' =
            { p with
              store =
                Pstore
                  { st with
                    p_frame = Some (vf.vfn_frame, cells);
                    p_sc_locals = None };
              depth = p.depth + 1 }
          in
          List.map
            (fun (p, s) ->
              let st = match p.store with Pstore st -> st | _ -> assert false in
              ( { p with
                  store =
                    Pstore
                      { st with p_frame = saved_frame; p_sc_locals = saved_sc };
                  depth = p.depth - 1 },
                s ))
            (finish_call (exec_stmts ctx p' vf.vfn_body))

(* consume the Return of a function body: the returned value (Unit when
   the body falls off the end) becomes the call's result *)
and finish_call (paths : path list) : (path * sym) list =
  List.map
    (fun p ->
      match p.ret with
      | Some v -> ({ p with ret = None }, v)
      | None -> (p, unit_s))
    paths

(* ------------------------------------------------------------------ *)
(* Statement execution                                                 *)
(* ------------------------------------------------------------------ *)

and exec_stmts ctx p (stmts : Ast.stmt list) : path list =
  match stmts with
  | [] -> [ p ]
  | s :: rest ->
      bind_paths (exec_stmt ctx p s) (fun p -> exec_stmts ctx p rest)

and exec_stmt ctx p (s : Ast.stmt) : path list =
  if halted p then [ p ]
  else
    let p = { p with cur_pos = s.Ast.sloc } in
    match s.Ast.sk with
    | Ast.Decl (typ, n, init) ->
        let vals =
          match init with
          | Some e -> eval ctx p e
          | None -> [ (p, Con (Value.default_of_typ typ)) ]
        in
        List.map
          (fun (p, v) ->
            if halted p then p
            else
              match store_decl p.store n v with
              | Ok store -> { p with store }
              | Error m -> perr p m)
          vals
    | Ast.Assign (n, e) ->
        List.map
          (fun (p, v) ->
            if halted p then p
            else
              match store_write ctx.cx_hooks p.store n v with
              | Ok (store, hook) ->
                  let p = { p with store } in
                  (match hook with
                  | Some tt -> { p with effects = Etrig (n, tt, v) :: p.effects }
                  | None -> p)
              | Error m -> perr p m)
          (eval ctx p e)
    | Ast.Transit e -> (
        match e with
        | Ast.Var tgt | Ast.String tgt ->
            [ { p with pending = Some (Pconc (tgt, s.Ast.sloc)) } ]
        | e ->
            List.map
              (fun (p, v) ->
                if halted p then p
                else
                  match v with
                  | Con c -> (
                      match Value.as_str c with
                      | tgt -> { p with pending = Some (Pconc (tgt, s.Ast.sloc)) }
                      | exception Value.Type_error m -> perr p m)
                  | v -> { p with pending = Some (Psym (v, s.Ast.sloc)) })
              (eval ctx p e))
    | Ast.If (c, th, el) ->
        List.concat_map
          (fun (p, cond) ->
            if halted p then [ p ]
            else
              match cond with
              | Con v -> (
                  match Value.truthy v with
                  | true -> exec_stmts ctx p th
                  | false -> exec_stmts ctx p el
                  | exception Value.Type_error m -> [ perr p m ])
              | cond ->
                  List.concat_map
                    (fun (p, b) ->
                      if halted p then [ p ]
                      else exec_stmts ctx p (if b then th else el))
                    (fork_bool ctx p cond))
          (eval ctx p c)
    | Ast.While (c, body) -> exec_while ctx p c body 0
    | Ast.Return None -> [ { p with ret = Some unit_s } ]
    | Ast.Return (Some e) ->
        List.map
          (fun (p, v) -> if halted p then p else { p with ret = Some v })
          (eval ctx p e)
    | Ast.Send (e, dest) ->
        (* the interpreter computes the target (evaluating a dynamic
           destination) before the payload *)
        let targets =
          match dest with
          | Ast.Harvester -> [ (p, To_harvester) ]
          | Ast.Machine (m, None) -> [ (p, To_machine (m, None)) ]
          | Ast.Machine (m, Some d) ->
              List.map
                (fun (p, s) -> (p, To_machine (m, Some s)))
                (eval ctx p d)
        in
        List.concat_map
          (fun (p, tgt) ->
            if halted p then [ p ]
            else
              List.map
                (fun (p, v) ->
                  if halted p then p
                  else { p with effects = Esend (tgt, v) :: p.effects })
                (eval ctx p e))
          targets
    | Ast.ExprStmt e ->
        List.map (fun (p, _) -> p) (eval ctx p e)

and exec_while ctx p cond body iter : path list =
  if halted p then [ p ]
  else
    List.concat_map
      (fun (p, c) ->
        if halted p then [ p ]
        else
          match c with
          | Con v -> (
              match Value.truthy v with
              | false -> [ p ]
              | true ->
                  if iter >= max_concrete_iters then
                    [ punknown p "loop iteration budget exhausted (--max-paths)" ]
                  else
                    bind_paths (exec_stmts ctx p body) (fun p ->
                        exec_while ctx p cond body (iter + 1))
              | exception Value.Type_error m -> [ perr p m ])
          | c ->
              if iter >= ctx.cx_budget.max_unroll then
                [ punknown p "loop unroll budget exhausted (--max-paths)" ]
              else
                List.concat_map
                  (fun (p, b) ->
                    if halted p then [ p ]
                    else if not b then [ p ]
                    else
                      bind_paths (exec_stmts ctx p body) (fun p ->
                          exec_while ctx p cond body (iter + 1)))
                  (fork_bool ctx p c))
      (eval ctx p cond)

(* ------------------------------------------------------------------ *)
(* Handler-level drivers                                               *)
(* ------------------------------------------------------------------ *)

(* One event of a dispatch sequence, with its side-specific frame. *)
type event_u = { eu_body : Ast.stmt list; eu_frame : frame_u }

and frame_u =
  | Fnames of (string * sym) list
      (* interpreter: fresh hashtable frame holding the bindings *)
  | Fplan of Compile.vevent
      (* plan: the event's recorded layout; the binding slot (if any)
         is installed by [run_events] *)

(* Run the events of one dispatch in sequence (as [Interp.dispatch] /
   [Exec.run_events] do), [binding] being the trigger/recv payload. *)
let run_events ctx store (events : event_u list) ~(binding : sym) : path list
    =
  let set_frame p (fr : frame_u) =
    match (p.store, fr) with
    | Istore st, Fnames bindings ->
        { p with
          store =
            Istore
              { st with
                i_frames =
                  [ SMap.of_seq (List.to_seq bindings) ] } }
    | Pstore st, Fplan ve ->
        let cells =
          match ve.Compile.ve_binding with
          | Some (_, slot) -> IMap.singleton slot binding
          | None -> IMap.empty
        in
        { p with
          store =
            Pstore
              { st with
                p_frame = Some (ve.Compile.ve_frame, cells);
                p_sc_locals = ve.Compile.ve_locals } }
    | _ -> invalid_arg "run_events: store/frame side mismatch"
  in
  let clear_frame p =
    match p.store with
    | Istore st -> { p with store = Istore { st with i_frames = [] } }
    | Pstore st ->
        { p with
          store = Pstore { st with p_frame = None; p_sc_locals = None } }
  in
  let run_one p (ev : event_u) =
    if halted p then [ p ]
    else
      let p = set_frame p ev.eu_frame in
      List.map
        (fun p -> clear_frame { p with ret = None })  (* Return_exc caught *)
        (exec_stmts ctx p ev.eu_body)
  in
  List.fold_left
    (fun paths ev -> List.concat_map (fun p -> run_one p ev) paths)
    [ init_path store ] events

(* -- initializer sequences ------------------------------------------ *)

type init_u = {
  iu_name : string;
  iu_slot : int option;  (* plan side *)
  iu_kind :
    [ `Expr of Ast.expr | `Default of Ast.typ | `Unit | `External of sym ];
}

let raw_write target store name slot v =
  match (store, target) with
  | Istore st, `Globals -> Istore { st with i_globals = SMap.add name v st.i_globals }
  | Istore st, `Locals -> Istore { st with i_locals = SMap.add name v st.i_locals }
  | Pstore st, `Globals -> (
      match slot with
      | Some i -> Pstore { st with p_globals = IMap.add i v st.p_globals }
      | None -> fail "internal: plan initializer without a slot")
  | Pstore st, `Locals -> (
      match slot with
      | Some i -> Pstore { st with p_locals = IMap.add i v st.p_locals }
      | None -> fail "internal: plan initializer without a slot")

let eval_init ctx p (iu : init_u) : (path * sym) list =
  match iu.iu_kind with
  | `Expr e -> eval ctx p e
  | `Default t -> [ (p, Con (Value.default_of_typ t)) ]
  | `Unit -> [ (p, unit_s) ]
  | `External s -> [ (p, s) ]

(* Progressive initialization: each initializer sees the previous ones'
   writes (machine-variable creation, initial-state locals at [start]). *)
let run_inits_progressive ctx store target (inits : init_u list) : path list =
  List.fold_left
    (fun paths iu ->
      bind_paths paths (fun p ->
          List.map
            (fun (p, v) ->
              if halted p then p
              else
                { p with
                  store = raw_write target p.store iu.iu_name iu.iu_slot v })
            (eval_init ctx p iu)))
    [ init_path store ] inits

(* Transit-mode local initialization: all initializers read the *old*
   state's locals; the new locals replace them only at the end.
   [new_names] is the target state's runtime locals layout. *)
let run_local_inits_transit ctx store ~(new_names : string array)
    (inits : init_u list) : path list =
  let paths =
    List.fold_left
      (fun acc iu ->
        List.concat_map
          (fun (p, writes) ->
            if halted p then [ (p, writes) ]
            else
              List.map
                (fun (p, v) -> (p, (iu.iu_name, iu.iu_slot, v) :: writes))
                (eval_init ctx p iu))
          acc)
      [ (init_path store, []) ]
      inits
  in
  List.map
    (fun (p, writes) ->
      if halted p then p
      else
        let store =
          match p.store with
          | Istore st ->
              let locals =
                List.fold_left
                  (fun acc (n, _, v) -> SMap.add n v acc)
                  SMap.empty (List.rev writes)
              in
              Istore { st with i_locals = locals }
          | Pstore st ->
              let cells =
                List.fold_left
                  (fun acc (_, slot, v) ->
                    match slot with
                    | Some i -> IMap.add i v acc
                    | None -> acc)
                  IMap.empty (List.rev writes)
              in
              Pstore
                { st with p_locals = cells; p_locals_names = new_names }
        in
        { p with store })
    paths

(* ------------------------------------------------------------------ *)
(* Concrete replay (symbolic-vs-concrete soundness)                    *)
(* ------------------------------------------------------------------ *)

(* Evaluate a symbolic term under a concrete assignment of the free
   [Svar]s.  Raises {!Host.Runtime_error} on terms that have no concrete
   meaning without a host ([Sopaque], [now], ...). *)
let rec eval_sym (lookup : string -> Value.t) (s : sym) : Value.t =
  match s with
  | Con v -> v
  | Svar (n, _) -> lookup n
  | Sfield (b, f) -> Value.field (eval_sym lookup b) f
  | Sapp (f, args) -> (
      let argv = List.map (eval_sym lookup) args in
      match Builtins.find f with
      | Some { runs = Builtins.Pure e; _ } -> e.call argv
      | _ -> fail "eval_sym: opaque builtin %s" f)
  | Sopaque (f, i) -> fail "eval_sym: opaque call %s#%d" f i
  | Sunop (op, a) -> Semantics.unop op (eval_sym lookup a)
  | Sbinop (op, a, b) ->
      Semantics.binop op (eval_sym lookup a) (eval_sym lookup b)
  | Slist l -> Value.List (List.map (eval_sym lookup) l)
  | Sstats a ->
      Value.Stats (Array.map (fun s -> Value.as_num (eval_sym lookup s)) a)
  | Sstruct (n, fields) ->
      Value.Struct (n, List.map (fun (f, s) -> (f, eval_sym lookup s)) fields)

(* Does a concrete assignment satisfy a path condition? *)
let pc_sat lookup (pc : (sym * bool) list) : bool =
  List.for_all
    (fun (t, b) ->
      match Value.truthy (eval_sym lookup t) with
      | v -> v = b
      | exception _ -> false)
    pc
