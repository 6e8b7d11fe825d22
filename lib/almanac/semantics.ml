(** The semantic rules of Almanac shared by both engines, the symbolic
    executor and the analyses: value operators and event dispatch. *)

let fail = Host.fail

(* ------------------------------------------------------------------ *)
(* Value operators                                                     *)
(* ------------------------------------------------------------------ *)

let arith op (va : Value.t) (vb : Value.t) : Value.t =
  match (op, va, vb) with
  | Ast.Add, Value.Str x, Value.Str y -> Value.Str (x ^ y)
  | _ ->
      let x = Value.as_num va in
      let y = Value.as_num vb in
      Value.Num
        (match op with
        | Ast.Add -> x +. y
        | Ast.Sub -> x -. y
        | Ast.Mul -> x *. y
        | Ast.Div -> if y = 0. then fail "division by zero" else x /. y
        | _ -> invalid_arg "Semantics.arith")

let order op (x : float) y =
  match op with
  | Ast.Le -> x <= y
  | Ast.Ge -> x >= y
  | Ast.Lt -> x < y
  | Ast.Gt -> x > y
  | _ -> invalid_arg "Semantics.order"

let not_ (v : Value.t) =
  match v with
  | Value.Bool b -> Value.of_bool (not b)
  | Value.FilterV f -> Value.FilterV (Farm_net.Filter.Not f)
  | v -> fail "'not' applied to %s" (Value.to_string v)

let neg v = Value.Num (-.Value.as_num v)

let logic_fail op v =
  fail "'%s' on %s" (if op = Ast.And then "and" else "or") (Value.to_string v)

let some_false = Some (Value.of_bool false)
let some_true = Some (Value.of_bool true)

let logic_left op (va : Value.t) =
  match (op, va) with
  | Ast.And, Value.Bool false -> some_false
  | Ast.Or, Value.Bool true -> some_true
  | _, (Value.Bool _ | Value.FilterV _) -> None
  | _, v -> logic_fail op v

let logic_bool op (vb : Value.t) =
  match vb with Value.Bool b -> b | v -> logic_fail op v

let logic_right op (va : Value.t) vb =
  match va with
  | Value.FilterV fa ->
      let fb = Value.as_filter vb in
      Value.FilterV
        (if op = Ast.And then Farm_net.Filter.And (fa, fb)
         else Farm_net.Filter.Or (fa, fb))
  | _ -> Value.of_bool (logic_bool op vb)

let binop op va vb =
  match (op : Ast.binop) with
  | Ast.And | Ast.Or -> (
      match logic_left op va with Some r -> r | None -> logic_right op va vb)
  | Ast.Eq -> Value.of_bool (Value.equal va vb)
  | Ast.Neq -> Value.of_bool (not (Value.equal va vb))
  | Ast.Le | Ast.Ge | Ast.Lt | Ast.Gt ->
      let x = Value.as_num va in
      let y = Value.as_num vb in
      Value.of_bool (order op x y)
  | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div -> arith op va vb

let unop (op : Ast.unop) v = match op with Ast.Not -> not_ v | Ast.Neg -> neg v

(* ------------------------------------------------------------------ *)
(* Event dispatch                                                      *)
(* ------------------------------------------------------------------ *)

type key = Enter | Exit | Realloc | Var of string

let trigger_key = function
  | Ast.On_enter -> Some Enter
  | Ast.On_exit -> Some Exit
  | Ast.On_realloc -> Some Realloc
  | Ast.On_trigger_var (y, _) -> Some (Var y)
  | Ast.On_recv _ -> None

let key_name = function
  | Enter -> "enter"
  | Exit -> "exit"
  | Realloc -> "realloc"
  | Var y -> "var:" ^ y

let has_key key (t : Ast.trigger) =
  match (key, t) with
  | Enter, Ast.On_enter | Exit, Ast.On_exit | Realloc, Ast.On_realloc -> true
  | Var y, Ast.On_trigger_var (y', _) -> String.equal y y'
  | _ -> false

let events_for (m : Ast.machine) (st : Ast.state_decl) key =
  let matches (e : Ast.event) = has_key key e.trigger in
  match List.filter matches st.sevents with
  | [] -> List.filter matches m.mevents
  | evs -> evs

let recv_arms (m : Ast.machine) (st : Ast.state_decl) =
  List.filter_map
    (fun (ev : Ast.event) ->
      match ev.trigger with
      | Ast.On_recv (ty, _, dest) -> Some (ty, dest, ev)
      | _ -> None)
    (st.sevents @ m.mevents)

let source_name = function Ast.Harvester -> "harvester" | Ast.Machine (m, _) -> m

let source_matches (dest : Ast.dest) (from : Host.source) =
  match (dest, from) with
  | Ast.Harvester, Host.From_harvester -> true
  | Ast.Machine (m, _), Host.From_machine m' -> String.equal m m'
  | Ast.Harvester, Host.From_machine _ | Ast.Machine _, Host.From_harvester ->
      false

(* Types whose arms accept the same values map to one type. *)
let accepted = function Ast.Tint | Ast.Tlong -> Ast.Tfloat | ty -> ty

let value_matches_typ (v : Value.t) ty =
  match (v, accepted ty) with
  | Value.Num _, Ast.Tfloat
  | Value.Bool _, Ast.Tbool
  | Value.Str _, Ast.Tstring
  | (Value.List _ | Value.Nums _), Ast.Tlist
  | Value.Packet _, Ast.Tpacket
  | Value.Action _, Ast.Taction
  | Value.FilterV _, Ast.Tfilter
  | Value.Stats _, Ast.Tstats
  | Value.Struct ("Rule", _), Ast.Trule
  | Value.Unit, Ast.Tunit ->
      true
  | _ -> false

let accepts ty dest from v = source_matches dest from && value_matches_typ v ty

let live_recv_arms m st =
  let shadowed (ty, dest, _) (ty', dest', _) =
    accepted ty = accepted ty' && String.equal (source_name dest) (source_name dest')
  in
  let rec go earlier = function
    | [] -> []
    | arm :: rest ->
        if List.exists (fun e -> shadowed e arm) earlier then go earlier rest
        else arm :: go (arm :: earlier) rest
  in
  go [] (recv_arms m st)

(* ------------------------------------------------------------------ *)
(* Transits                                                            *)
(* ------------------------------------------------------------------ *)

let transit_target = function
  | Ast.Var s | Ast.String s -> Some s
  | _ -> None

let rec stmt_transits (s : Ast.stmt) =
  match s.Ast.sk with
  | Ast.Transit e -> [ (s.Ast.sloc, transit_target e) ]
  | Ast.If (_, a, b) -> List.concat_map stmt_transits (a @ b)
  | Ast.While (_, b) -> List.concat_map stmt_transits b
  | _ -> []

let body_transits body = List.concat_map stmt_transits body
