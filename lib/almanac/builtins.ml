(** Pure built-in functions of the Almanac runtime library (List. 1 plus
    list/stats helpers), shared by the reference interpreter and the
    compiled engine.  Every built-in has a reference implementation in the
    list calling convention; the hot ones also have a list-free fast entry
    ({!fast}) for the compiled engine.  Only [now], [log] and [res] need a
    host: {!pure} is host-independent and built once. *)

let fail = Host.fail

let num f = Value.Num f
let arg1 = function [ a ] -> a | _ -> fail "expected 1 argument"
let arg2 = function [ a; b ] -> (a, b) | _ -> fail "expected 2 arguments"

let proto_of_string = function
  | "tcp" -> Farm_net.Flow.Tcp
  | "udp" -> Farm_net.Flow.Udp
  | "icmp" -> Farm_net.Flow.Icmp
  | s -> fail "unknown protocol %S" s

(* Evaluate a filter atom head applied to an already-evaluated argument. *)
let filter_atom_value head (arg : Value.t) : Farm_net.Filter.t =
  let open Farm_net in
  match (head, arg) with
  | _, Value.FilterV f -> f  (* ANY evaluates to a filter already *)
  | (Ast.SrcIP | Ast.DstIP), Value.Str s -> (
      match Ipaddr.Prefix.of_string_opt s with
      | Some p ->
          Filter.atom
            (if head = Ast.SrcIP then Filter.Src_ip p else Filter.Dst_ip p)
      | None -> fail "bad IP prefix %S in filter" s)
  | Ast.SrcPort, v -> Filter.atom (Filter.Src_port (int_of_float (Value.as_num v)))
  | Ast.DstPort, v -> Filter.atom (Filter.Dst_port (int_of_float (Value.as_num v)))
  | Ast.PortF, v -> Filter.atom (Filter.Port (int_of_float (Value.as_num v)))
  | Ast.ProtoF, Value.Str s -> Filter.atom (Filter.Proto (proto_of_string s))
  | _ -> fail "bad filter atom argument"

let min_fn args =
  let a, b = arg2 args in
  num (Float.min (Value.as_num a) (Value.as_num b))

let max_fn args =
  let a, b = arg2 args in
  num (Float.max (Value.as_num a) (Value.as_num b))

let size_fn args = num (float_of_int (List.length (Value.as_list (arg1 args))))

let is_list_empty l = Value.of_bool (Value.as_list l = [])
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
  | Value_of_value_num of (float array -> Value.t -> Value.t)

type entry = { arity : int; call : Value.t list -> Value.t; fast : fast }

let pure : (string, entry) Hashtbl.t =
  let generic call = { arity = -1; call; fast = Generic } in
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (name, e) -> Hashtbl.replace tbl name e)
    [ ( "min",
        { arity = 2; call = min_fn;
          fast = Num_of_nums (fun r -> r.(0) <- Float.min r.(0) r.(1)) } );
      ( "max",
        { arity = 2; call = max_fn;
          fast = Num_of_nums (fun r -> r.(0) <- Float.max r.(0) r.(1)) } );
      ( "size",
        { arity = 1; call = size_fn;
          fast =
            Num_of_value
              (fun r l -> r.(0) <- float_of_int (List.length (Value.as_list l))) } );
      ( "is_list_empty",
        { arity = 1; call = is_list_empty_fn; fast = Value_of_value is_list_empty } );
      ("append", { arity = 2; call = append_fn; fast = Value_of_values append });
      ( "nth",
        { arity = 2; call = nth_fn;
          fast =
            Value_of_value_num
              (fun r l -> nth_in (Value.as_list l) (int_of_float r.(0))) } );
      ("contains_elem", generic contains_elem_fn);
      ("remove_elem", generic remove_elem_fn);
      ("index_of", generic index_of_fn);
      ("set_nth", generic set_nth_fn);
      ("stat", { arity = 2; call = stat_fn; fast = Num_of_value_num stat_fast });
      ( "stats_size",
        { arity = 1; call = stats_size_fn;
          fast =
            Num_of_value
              (fun r s -> r.(0) <- float_of_int (Array.length (Value.as_stats s))) } );
      ("stats_sum", generic stats_sum_fn);
      ("drop_action", generic drop_action_fn);
      ("count_action", generic count_action_fn);
      ("rate_limit_action", generic rate_limit_action_fn);
      ("qos_action", generic qos_action_fn);
      ("mkRule", generic mk_rule_fn);
      ("str", generic str_fn);
      ("str_contains", generic str_contains_fn);
      ( "floor",
        { arity = 1; call = floor_fn; fast = Num_of_nums (fun r -> r.(0) <- Float.floor r.(0)) } );
      ( "abs",
        { arity = 1; call = abs_fn; fast = Num_of_nums (fun r -> r.(0) <- Float.abs r.(0)) } );
      ("log2", generic log2_fn);
      ("hash", generic hash_fn);
      ("assert", generic assert_fn) ];
  tbl

let now_fn (host : Host.host) _args = num (host.h_now ())

let host_bound = [ ("now", now_fn); ("log", log_fn); ("res", res_fn) ]

let table (host : Host.host) : (string, Value.t list -> Value.t) Hashtbl.t =
  let tbl = Hashtbl.create 64 in
  Hashtbl.iter (fun name e -> Hashtbl.replace tbl name e.call) pure;
  List.iter (fun (name, f) -> Hashtbl.replace tbl name (f host)) host_bound;
  tbl
