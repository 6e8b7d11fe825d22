type t =
  | Unit
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Nums of floatarray
  | Packet of Farm_net.Flow.packet
  | Action of Farm_net.Tcam.action
  | FilterV of Farm_net.Filter.t
  | Stats of float array
  | Struct of string * (string * t) list

exception Type_error of string

let type_error fmt = Printf.ksprintf (fun m -> raise (Type_error m)) fmt

let kind = function
  | Unit -> "unit"
  | Bool _ -> "bool"
  | Num _ -> "number"
  | Str _ -> "string"
  | List _ | Nums _ -> "list"
  | Packet _ -> "packet"
  | Action _ -> "action"
  | FilterV _ -> "filter"
  | Stats _ -> "stats"
  | Struct (n, _) -> n

let of_bool b = if b then Bool true else Bool false

let truthy = function
  | Bool b -> b
  | Num n -> n <> 0.
  | Unit -> false
  | v -> type_error "expected a boolean, got %s" (kind v)

let as_num = function
  | Num n -> n
  | Bool true -> 1.
  | Bool false -> 0.
  | v -> type_error "expected a number, got %s" (kind v)

let as_str = function
  | Str s -> s
  | v -> type_error "expected a string, got %s" (kind v)

let nums_to_list a =
  let rec go i acc =
    if i < 0 then acc else go (i - 1) (Num (Float.Array.get a i) :: acc)
  in
  go (Float.Array.length a - 1) []

let as_list = function
  | List l -> l
  | Nums a -> nums_to_list a
  | v -> type_error "expected a list, got %s" (kind v)

let rec has_nums = function
  | Nums _ -> true
  | List l -> List.exists has_nums l
  | Struct (_, fields) -> List.exists (fun (_, x) -> has_nums x) fields
  | Unit | Bool _ | Num _ | Str _ | Packet _ | Action _ | FilterV _ | Stats _ ->
      false

let rec plain v =
  if not (has_nums v) then v
  else
    match v with
    | Nums a -> List (nums_to_list a)
    | List l -> List (List.map plain l)
    | Struct (n, fields) -> Struct (n, List.map (fun (k, x) -> (k, plain x)) fields)
    | v -> v

let list_length = function
  | Nums a -> Float.Array.length a
  | v -> List.length (as_list v)

let as_filter = function
  | FilterV f -> f
  | v -> type_error "expected a filter, got %s" (kind v)

let as_action = function
  | Action a -> a
  | v -> type_error "expected an action, got %s" (kind v)

let as_stats = function
  | Stats s -> s
  | v -> type_error "expected stats, got %s" (kind v)

let rec equal a b =
  match (a, b) with
  | Unit, Unit -> true
  | Bool x, Bool y -> x = y
  | Num x, Num y -> x = y
  | Str x, Str y -> String.equal x y
  | List x, List y -> List.length x = List.length y && List.for_all2 equal x y
  | Nums x, Nums y ->
      let n = Float.Array.length x in
      let rec go i = i >= n || (Float.Array.get x i = Float.Array.get y i && go (i + 1)) in
      n = Float.Array.length y && go 0
  | Nums x, List y | List y, Nums x ->
      let rec go i = function
        | [] -> i = Float.Array.length x
        | Num v :: r -> i < Float.Array.length x && Float.Array.get x i = v && go (i + 1) r
        | _ :: _ -> false
      in
      go 0 y
  | Packet x, Packet y -> x = y
  | Action x, Action y -> x = y
  | FilterV x, FilterV y -> Farm_net.Filter.equal x y
  | Stats x, Stats y -> x = y
  | Struct (n, fx), Struct (m, fy) ->
      String.equal n m
      && List.length fx = List.length fy
      && List.for_all2
           (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && equal v1 v2)
           fx fy
  | ( ( Unit | Bool _ | Num _ | Str _ | List _ | Nums _ | Packet _ | Action _
      | FilterV _ | Stats _ | Struct _ ),
      _ ) ->
      false

let default_of_typ = function
  | Ast.Tbool -> Bool false
  | Ast.Tint | Ast.Tlong | Ast.Tfloat -> Num 0.
  | Ast.Tstring -> Str ""
  | Ast.Tlist -> List []
  | Ast.Tpacket ->
      Packet
        (Farm_net.Flow.packet
           { Farm_net.Flow.src = Farm_net.Ipaddr.of_int 0;
             dst = Farm_net.Ipaddr.of_int 0; sport = 0; dport = 0;
             proto = Farm_net.Flow.Tcp }
           0)
  | Ast.Taction -> Action Farm_net.Tcam.Count
  | Ast.Tfilter -> FilterV Farm_net.Filter.False
  | Ast.Tstats -> Stats [||]
  | Ast.Trule ->
      Struct
        ("Rule",
         [ ("pattern", FilterV Farm_net.Filter.False);
           ("act", Action Farm_net.Tcam.Count) ])
  | Ast.Tresources -> Struct ("Resources", [])
  | Ast.Tunit -> Unit

let field v name =
  match v with
  | Struct (sname, fields) -> (
      match List.assoc_opt name fields with
      | Some x -> x
      | None -> type_error "struct %s has no field %s" sname name)
  | Packet p -> (
      let open Farm_net in
      match name with
      | "size" -> Num (float_of_int p.Flow.size)
      | "srcIP" -> Str (Ipaddr.to_string p.Flow.tuple.src)
      | "dstIP" -> Str (Ipaddr.to_string p.Flow.tuple.dst)
      | "srcPort" -> Num (float_of_int p.Flow.tuple.sport)
      | "dstPort" -> Num (float_of_int p.Flow.tuple.dport)
      | "proto" -> Str (Flow.proto_to_string p.Flow.tuple.proto)
      | "syn" -> Bool p.Flow.flags.syn
      | "ack" -> Bool p.Flow.flags.ack
      | "fin" -> Bool p.Flow.flags.fin
      | "rst" -> Bool p.Flow.flags.rst
      | "payload" -> Str p.Flow.payload
      | _ -> type_error "packet has no field %s" name)
  | v -> type_error "%s has no fields" (kind v)

let rec pp ppf = function
  | Unit -> Format.pp_print_string ppf "()"
  | Bool b -> Format.pp_print_bool ppf b
  | Num n ->
      if Float.is_integer n && Float.abs n < 1e15 then
        Format.fprintf ppf "%.0f" n
      else Format.fprintf ppf "%g" n
  | Str s -> Format.fprintf ppf "%S" s
  | List l ->
      Format.fprintf ppf "[%a]"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
           pp)
        l
  | Nums a -> pp ppf (List (nums_to_list a))
  | Packet p -> Format.fprintf ppf "<packet %a>" Farm_net.Flow.pp_tuple p.tuple
  | Action _ -> Format.pp_print_string ppf "<action>"
  | FilterV f -> Farm_net.Filter.pp ppf f
  | Stats s -> Format.fprintf ppf "<stats[%d]>" (Array.length s)
  | Struct (n, fields) ->
      Format.fprintf ppf "%s{%a}" n
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
           (fun ppf (k, v) -> Format.fprintf ppf ".%s=%a" k pp v))
        fields

let to_string v = Format.asprintf "%a" pp v
