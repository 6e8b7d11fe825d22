(** The runtime library of Almanac (List. 1 plus list/stats helpers), one
    catalogue row per built-in.  Pure built-ins have a reference
    implementation in the list calling convention; the hot ones also a
    list-free fast entry ({!fast}) for the compiled engine. *)

let fail = Host.fail

let num f = Value.Num f
let arg1 = function [ a ] -> a | _ -> fail "expected 1 argument"
let arg2 = function [ a; b ] -> (a, b) | _ -> fail "expected 2 arguments"

(* Evaluate a filter atom head applied to an already-evaluated argument. *)
let filter_atom_value head arg =
  match Analysis.filter_atom head arg with
  | Ok f -> f
  | Error (`Bad_prefix s) -> fail "bad IP prefix %S in filter" s
  | Error (`Bad_proto s) -> fail "unknown protocol %S" s
  | Error `Bad_arg -> fail "bad filter atom argument"

let min_fn args =
  let a, b = arg2 args in
  num (Float.min (Value.as_num a) (Value.as_num b))

let max_fn args =
  let a, b = arg2 args in
  num (Float.max (Value.as_num a) (Value.as_num b))

let size_fn args = num (float_of_int (Value.list_length (arg1 args)))

let is_list_empty l =
  Value.of_bool
    (match l with
    | Value.Nums a -> Float.Array.length a = 0
    | l -> Value.as_list l = [])
let is_list_empty_fn args = is_list_empty (arg1 args)
let append l x = Value.List (Value.as_list l @ [ x ])

let append_fn args =
  let l, x = arg2 args in
  append l x

(* The index rules of [nth], [set_nth] and [stat], shared with the
   symbolic executor's folds over known lists and stats. *)

let index v = int_of_float (Value.as_num v)

let nth_in l i =
  match if i < 0 then None else List.nth_opt l i with
  | Some v -> v
  | None -> fail "nth: index %d out of bounds (size %d)" i (List.length l)

let set_nth_in l i x =
  if i < 0 || i >= List.length l then
    fail "set_nth: index %d out of bounds (size %d)" i (List.length l)
  else List.mapi (fun j v -> if j = i then x else v) l

let check_stat i size =
  if i < 0 || i >= size then
    fail "stat: index %d out of bounds (size %d)" i size

let nth_fn args =
  let l, i = arg2 args in
  let l = Value.as_list l in
  nth_in l (index i)

let contains_elem_fn args =
  let l, x = arg2 args in
  Value.of_bool (List.exists (Value.equal x) (Value.as_list l))

let remove_elem_fn args =
  let l, x = arg2 args in
  Value.List (List.filter (fun v -> not (Value.equal x v)) (Value.as_list l))

let index_of_fn args =
  let l, x = arg2 args in
  let rec go i = function
    | [] -> -1.
    | v :: rest -> if Value.equal x v then float_of_int i else go (i + 1) rest
  in
  num (go 0 (Value.as_list l))

let set_nth_fn args =
  match args with
  | [ l; i; x ] ->
      let l = Value.as_list l in
      Value.List (set_nth_in l (index i) x)
  | _ -> fail "set_nth expects 3 arguments"

let stat_fn args =
  let s, i = arg2 args in
  let s = Value.as_stats s in
  let i = index i in
  check_stat i (Array.length s);
  num s.(i)

let stat_fast (r : float array) s =
  let s = Value.as_stats s in
  let i = int_of_float r.(0) in
  check_stat i (Array.length s);
  r.(0) <- s.(i)

let stats_size_fn args =
  num (float_of_int (Array.length (Value.as_stats (arg1 args))))

let stats_sum_fn args =
  num (Array.fold_left ( +. ) 0. (Value.as_stats (arg1 args)))

let drop_action_fn _ = Value.Action Farm_net.Tcam.Drop
let count_action_fn _ = Value.Action Farm_net.Tcam.Count

let rate_limit_action_fn args =
  Value.Action (Farm_net.Tcam.Rate_limit (Value.as_num (arg1 args)))

let qos_action_fn args =
  Value.Action (Farm_net.Tcam.Set_qos (int_of_float (Value.as_num (arg1 args))))

let mk_rule_fn args =
  let p, a = arg2 args in
  Value.Struct
    ("Rule", [ ("pattern", Value.FilterV (Value.as_filter p));
               ("act", Value.Action (Value.as_action a)) ])

let str_fn args = Value.Str (Value.to_string (arg1 args))

(* user invariant: fails the handler when the condition is false; the
   static counterpart is Reach's V403 proof obligation *)
let assert_fn args =
  if Value.truthy (arg1 args) then Value.Unit
  else fail "assertion failed"

let str_contains_fn args =
  let s, sub = arg2 args in
  let s = Value.as_str s and sub = Value.as_str sub in
  let n = String.length sub in
  let found = ref false in
  for i = 0 to String.length s - n do
    if String.sub s i n = sub then found := true
  done;
  Value.of_bool !found

let floor_fn args = num (Float.floor (Value.as_num (arg1 args)))
let abs_fn args = num (Float.abs (Value.as_num (arg1 args)))

let log2_fn args =
  let x = Value.as_num (arg1 args) in
  num (if x <= 0. then 0. else Float.log x /. Float.log 2.)

let hash_fn args =
  num (float_of_int (Hashtbl.hash (Value.to_string (arg1 args)) land 0xFFFFFF))

(* Host-bound built-ins. *)

let now_fn (host : Host.host) _args = num (host.h_now ())

let log_fn (host : Host.host) args =
  host.h_log (Value.to_string (arg1 args));
  Value.Unit

let res_fn (host : Host.host) _args =
  let r = host.h_resources () in
  let field res =
    ( Analysis.resource_name res,
      num
        (let i = Analysis.resource_index res in
         if i < Array.length r then r.(i) else 0.) )
  in
  Value.Struct ("Resources", List.map field Analysis.all_resources)

(* ------------------------------------------------------------------ *)
(* List-free entries                                                   *)
(* ------------------------------------------------------------------ *)

type fast =
  | Generic
  | Num_of_nums of (float array -> unit)
  | Num_of_value of (float array -> Value.t -> unit)
  | Num_of_value_num of (float array -> Value.t -> unit)
  | Value_of_value of (Value.t -> Value.t)
  | Value_of_values of (Value.t -> Value.t -> Value.t)
  | Elem of (float array -> Value.t -> Value.t)

type entry = { arity : int; call : Value.t list -> Value.t; fast : fast }

(* ------------------------------------------------------------------ *)
(* The catalogue                                                       *)
(* ------------------------------------------------------------------ *)

type sigty = Any | Numeric | Ty of Ast.typ

type func_sig = { args : sigty list; ret : sigty }

type runs =
  | Pure of entry
  | Engine of (Host.host -> Value.t list -> Value.t)
  | Soil

type row = {
  name : string;
  signature : func_sig;
  runs : runs;
  stable : bool;
  at_least : float option;
}

let row name args ret runs =
  { name; signature = { args; ret }; runs; stable = false; at_least = None }

let stable r = { r with stable = true }
let at_least lo r = { r with at_least = Some lo }
let generic call = Pure { arity = -1; call; fast = Generic }
let fast_entry arity call fast = Pure { arity; call; fast }

let catalogue =
  let list = Ty Ast.Tlist and stats = Ty Ast.Tstats in
  let action = Ty Ast.Taction and bool = Ty Ast.Tbool in
  [ (* runtime library, List. 1 *)
    stable (row "res" [] (Ty Ast.Tresources) (Engine res_fn));
    row "addTCAMRule" [ Ty Ast.Trule ] (Ty Ast.Tunit) Soil;
    row "removeTCAMRule" [ Ty Ast.Tfilter ] (Ty Ast.Tunit) Soil;
    row "getTCAMRule" [ Ty Ast.Tfilter ] (Ty Ast.Trule) Soil;
    row "exec" [ Ty Ast.Tstring ] Numeric Soil;
    row "min" [ Numeric; Numeric ] Numeric
      (fast_entry 2 min_fn
         (Num_of_nums (fun r -> r.(0) <- Float.min r.(0) r.(1))));
    row "max" [ Numeric; Numeric ] Numeric
      (fast_entry 2 max_fn
         (Num_of_nums (fun r -> r.(0) <- Float.max r.(0) r.(1))));
    (* list helpers *)
    at_least 0.
      (row "size" [ list ] Numeric
         (fast_entry 1 size_fn
            (Num_of_value
               (fun r l -> r.(0) <- float_of_int (Value.list_length l)))));
    row "is_list_empty" [ list ] bool
      (fast_entry 1 is_list_empty_fn (Value_of_value is_list_empty));
    row "append" [ list; Any ] list
      (fast_entry 2 append_fn (Value_of_values append));
    row "nth" [ list; Numeric ] Any
      (fast_entry 2 nth_fn
         (Elem (fun r l -> nth_in (Value.as_list l) (int_of_float r.(0)))));
    row "contains_elem" [ list; Any ] bool (generic contains_elem_fn);
    row "remove_elem" [ list; Any ] list (generic remove_elem_fn);
    at_least (-1.) (row "index_of" [ list; Any ] Numeric (generic index_of_fn));
    row "set_nth" [ list; Numeric; Any ] list (generic set_nth_fn);
    (* stats helpers *)
    row "stat" [ stats; Numeric ] Numeric
      (fast_entry 2 stat_fn (Num_of_value_num stat_fast));
    at_least 0.
      (row "stats_size" [ stats ] Numeric
         (fast_entry 1 stats_size_fn
            (Num_of_value
               (fun r s ->
                 r.(0) <- float_of_int (Array.length (Value.as_stats s))))));
    row "stats_sum" [ stats ] Numeric (generic stats_sum_fn);
    (* actions *)
    row "drop_action" [] action (generic drop_action_fn);
    row "rate_limit_action" [ Numeric ] action (generic rate_limit_action_fn);
    row "qos_action" [ Numeric ] action (generic qos_action_fn);
    row "count_action" [] action (generic count_action_fn);
    row "mkRule" [ Ty Ast.Tfilter; Any ] (Ty Ast.Trule) (generic mk_rule_fn);
    (* misc *)
    stable (row "now" [] Numeric (Engine now_fn));
    row "log" [ Any ] (Ty Ast.Tunit) (Engine log_fn);
    row "str" [ Any ] (Ty Ast.Tstring) (generic str_fn);
    row "str_contains" [ Ty Ast.Tstring; Ty Ast.Tstring ] bool
      (generic str_contains_fn);
    row "floor" [ Numeric ] Numeric
      (fast_entry 1 floor_fn (Num_of_nums (fun r -> r.(0) <- Float.floor r.(0))));
    at_least 0.
      (row "abs" [ Numeric ] Numeric
         (fast_entry 1 abs_fn (Num_of_nums (fun r -> r.(0) <- Float.abs r.(0)))));
    row "log2" [ Numeric ] Numeric (generic log2_fn);
    at_least 0. (row "hash" [ Any ] Numeric (generic hash_fn));
    stable (row "self_switch" [] Numeric Soil);
    (* user invariants, checked at runtime and proved by [Reach] *)
    row "assert" [ bool ] (Ty Ast.Tunit) (generic assert_fn) ]

let find =
  let by_name = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace by_name r.name r) catalogue;
  Hashtbl.find_opt by_name

let soil_effects =
  List.filter_map
    (fun r ->
      match r.runs with Soil when not r.stable -> Some r.name | _ -> None)
    catalogue

(* [exec "svr N"] models the paper's support-vector-regression seed: N
   matrix-multiplication iterations at ~60 us of management CPU each
   (calibrated so 50 parallel 1 ms seeds offer ~3.5 cores, Fig. 6c).
   Any other command costs a flat 1 ms. *)
let exec_cost cmd =
  match String.split_on_char ' ' cmd with
  | [ "svr"; n ] -> (
      match int_of_string_opt n with
      | Some n -> float_of_int n *. 60e-6
      | None -> 1e-3)
  | _ -> 1e-3
