module Lin = Farm_optim.Lin_expr
module Filter = Farm_net.Filter
module Topology = Farm_net.Topology
module Routing = Farm_net.Routing

type resource = VCpu | Ram | TcamR | Pcie

let all_resources = [ VCpu; Ram; TcamR; Pcie ]
let n_resources = 4

let resource_index = function VCpu -> 0 | Ram -> 1 | TcamR -> 2 | Pcie -> 3

let resource_name = function
  | VCpu -> "vCPU"
  | Ram -> "RAM"
  | TcamR -> "TCAM"
  | Pcie -> "PCIe"

let resource_of_name = function
  | "vCPU" -> Some VCpu
  | "RAM" -> Some Ram
  | "TCAM" -> Some TcamR
  | "PCIe" -> Some Pcie
  | _ -> None

type bindings = string -> Value.t option

let no_bindings _ = None

let ( let* ) = Result.bind

let err fmt = Printf.ksprintf (fun m -> Error m) fmt

(* ------------------------------------------------------------------ *)
(* Linear-expression extraction over resource variables                *)
(* ------------------------------------------------------------------ *)

(* Convert a numeric expression over [uparam] resource fields (or
   [res().field]) into a linear expression over resource variable
   indices. *)
let rec to_linear ~bindings ~resvars (e : Ast.expr) : (Lin.t, string) result =
  match e with
  | Ast.Int i -> Ok (Lin.const (float_of_int i))
  | Ast.Float f -> Ok (Lin.const f)
  | Ast.Var v -> (
      match bindings v with
      | Some (Value.Num n) -> Ok (Lin.const n)
      | Some _ -> err "variable %s is not numeric" v
      | None -> err "analysis: unbound variable %s (bind externals first)" v)
  | Ast.Field (base, f) -> (
      let is_res_base =
        match base with
        | Ast.Var v -> List.mem v resvars
        | Ast.Call ("res", []) -> true
        | _ -> false
      in
      if not is_res_base then err "analysis: field access must be on resources"
      else
        match resource_of_name f with
        | Some r -> Ok (Lin.var (resource_index r))
        | None -> err "unknown resource %s" f)
  | Ast.Unop (Ast.Neg, a) ->
      let* la = to_linear ~bindings ~resvars a in
      Ok (Lin.neg la)
  | Ast.Binop (Ast.Add, a, b) ->
      let* la = to_linear ~bindings ~resvars a in
      let* lb = to_linear ~bindings ~resvars b in
      Ok (Lin.add la lb)
  | Ast.Binop (Ast.Sub, a, b) ->
      let* la = to_linear ~bindings ~resvars a in
      let* lb = to_linear ~bindings ~resvars b in
      Ok (Lin.sub la lb)
  | Ast.Binop (Ast.Mul, a, b) -> (
      let* la = to_linear ~bindings ~resvars a in
      let* lb = to_linear ~bindings ~resvars b in
      match (Lin.is_constant la, Lin.is_constant lb) with
      | true, _ -> Ok (Lin.scale (Lin.constant la) lb)
      | _, true -> Ok (Lin.scale (Lin.constant lb) la)
      | false, false -> err "non-linear utility: product of resources")
  | Ast.Binop (Ast.Div, a, b) ->
      let* la = to_linear ~bindings ~resvars a in
      let* lb = to_linear ~bindings ~resvars b in
      if Lin.is_constant lb then
        if Lin.constant lb = 0. then err "division by zero in utility"
        else Ok (Lin.scale (1. /. Lin.constant lb) la)
      else err "non-linear utility: division by a resource"
  | _ -> err "expression is not linear over resources"

(* ------------------------------------------------------------------ *)
(* Utility algebra: linear expressions combined with min/max            *)
(* ------------------------------------------------------------------ *)

type uval = ULin of Lin.t | UMin of uval list | UMax of uval list

let rec u_add a b =
  (* addition distributes over min and max *)
  match (a, b) with
  | ULin x, ULin y -> ULin (Lin.add x y)
  | UMin xs, b -> UMin (List.map (fun x -> u_add x b) xs)
  | a, UMin ys -> UMin (List.map (fun y -> u_add a y) ys)
  | UMax xs, b -> UMax (List.map (fun x -> u_add x b) xs)
  | a, UMax ys -> UMax (List.map (fun y -> u_add a y) ys)

let rec u_scale k v =
  if k >= 0. then
    match v with
    | ULin x -> ULin (Lin.scale k x)
    | UMin xs -> UMin (List.map (u_scale k) xs)
    | UMax xs -> UMax (List.map (u_scale k) xs)
  else
    match v with
    | ULin x -> ULin (Lin.scale k x)
    | UMin xs -> UMax (List.map (u_scale k) xs)  (* sign flip swaps min/max *)
    | UMax xs -> UMin (List.map (u_scale k) xs)

let rec to_uval ~bindings ~resvars (e : Ast.expr) : (uval, string) result =
  match e with
  | Ast.Call ("min", args) ->
      let* vs = collect ~bindings ~resvars args in
      Ok (UMin vs)
  | Ast.Call ("max", args) ->
      let* vs = collect ~bindings ~resvars args in
      Ok (UMax vs)
  | Ast.Binop (Ast.Add, a, b) ->
      let* va = to_uval ~bindings ~resvars a in
      let* vb = to_uval ~bindings ~resvars b in
      Ok (u_add va vb)
  | Ast.Binop (Ast.Sub, a, b) ->
      let* va = to_uval ~bindings ~resvars a in
      let* vb = to_uval ~bindings ~resvars b in
      Ok (u_add va (u_scale (-1.) vb))
  | Ast.Binop (Ast.Mul, a, b) -> (
      (* one side must be a constant *)
      let const_of e =
        match to_linear ~bindings ~resvars e with
        | Ok l when Lin.is_constant l -> Some (Lin.constant l)
        | _ -> None
      in
      match (const_of a, const_of b) with
      | Some k, _ ->
          let* vb = to_uval ~bindings ~resvars b in
          Ok (u_scale k vb)
      | _, Some k ->
          let* va = to_uval ~bindings ~resvars a in
          Ok (u_scale k va)
      | None, None -> err "non-linear utility: product of resources")
  | Ast.Binop (Ast.Div, a, b) -> (
      match to_linear ~bindings ~resvars b with
      | Ok l when Lin.is_constant l && Lin.constant l <> 0. ->
          let* va = to_uval ~bindings ~resvars a in
          Ok (u_scale (1. /. Lin.constant l) va)
      | _ -> err "non-linear utility: division by a resource")
  | e ->
      let* l = to_linear ~bindings ~resvars e in
      Ok (ULin l)

and collect ~bindings ~resvars args =
  List.fold_left
    (fun acc e ->
      let* acc = acc in
      let* v = to_uval ~bindings ~resvars e in
      Ok (v :: acc))
    (Ok []) args
  |> Result.map List.rev

(* Normalize a uval to alternatives of min-lists:
   result = max over branches of (min over the branch's list). *)
let rec u_branches (v : uval) : Lin.t list list =
  match v with
  | ULin l -> [ [ l ] ]
  | UMax vs -> List.concat_map u_branches vs
  | UMin vs ->
      (* cross product: min(max(a,b), c) = max(min(a,c), min(b,c)) *)
      let alts = List.map u_branches vs in
      List.fold_left
        (fun acc alt ->
          List.concat_map
            (fun chosen -> List.map (fun more -> chosen @ more) alt)
            acc)
        [ [] ] alts

(* ------------------------------------------------------------------ *)
(* Constraint extraction (κ)                                            *)
(* ------------------------------------------------------------------ *)

(* A boolean condition over resources in DNF: a list of conjunctions, each
   being a list of polynomials required >= 0. *)
let rec cond_dnf ~bindings ~resvars (e : Ast.expr) :
    (Lin.t list list, string) result =
  match e with
  | Ast.Bool true -> Ok [ [] ]
  | Ast.Bool false -> Ok []
  | Ast.Binop (Ast.And, a, b) ->
      let* da = cond_dnf ~bindings ~resvars a in
      let* db = cond_dnf ~bindings ~resvars b in
      Ok (List.concat_map (fun ca -> List.map (fun cb -> ca @ cb) db) da)
  | Ast.Binop (Ast.Or, a, b) ->
      let* da = cond_dnf ~bindings ~resvars a in
      let* db = cond_dnf ~bindings ~resvars b in
      Ok (da @ db)
  | Ast.Binop ((Ast.Ge | Ast.Gt), a, b) ->
      let* la = to_linear ~bindings ~resvars a in
      let* lb = to_linear ~bindings ~resvars b in
      Ok [ [ Lin.sub la lb ] ]
  | Ast.Binop ((Ast.Le | Ast.Lt), a, b) ->
      let* la = to_linear ~bindings ~resvars a in
      let* lb = to_linear ~bindings ~resvars b in
      Ok [ [ Lin.sub lb la ] ]
  | Ast.Binop (Ast.Eq, a, b) ->
      let* la = to_linear ~bindings ~resvars a in
      let* lb = to_linear ~bindings ~resvars b in
      Ok [ [ Lin.sub la lb; Lin.sub lb la ] ]
  | _ -> err "unsupported condition in util (§III-A f)"

(* ------------------------------------------------------------------ *)
(* Utility summary                                                      *)
(* ------------------------------------------------------------------ *)

type util_branch = { constraints : Lin.t list; utility : Lin.t list }

type util_summary = util_branch list

let default_utility = [ { constraints = []; utility = [ Lin.const 0. ] } ]

let utility ?(bindings = no_bindings) (u : Ast.util_decl) =
  let resvars = [ u.uparam ] in
  (* walk the if/return tree accumulating path conditions *)
  let rec walk conds stmts acc =
    match stmts with
    | [] -> Ok acc
    | { Ast.sk = Ast.If (c, t, f); _ } :: rest ->
        let* dnf = cond_dnf ~bindings ~resvars c in
        let* acc =
          List.fold_left
            (fun acc conj ->
              let* acc = acc in
              walk (conj :: conds) t acc)
            (Ok acc) dnf
        in
        (* the negated branch of a linear condition is not representable as
           >= constraints in general; the paper's semantics is "utility is
           u_i once C_i >= 0", so else-branches and subsequent statements
           are additional alternatives without the negation. *)
        let* acc = walk conds f acc in
        walk conds rest acc
    | { Ast.sk = Ast.Return (Some e); _ } :: _ ->
        let* v = to_uval ~bindings ~resvars e in
        let branches = u_branches v in
        let conj = List.concat conds in
        Ok
          (acc
          @ List.map
              (fun utility -> { constraints = conj; utility })
              branches)
    | { Ast.sk = Ast.Return None; _ } :: _ -> err "util must return a value"
    | { Ast.sk =
          ( Ast.Decl _ | Ast.Assign _ | Ast.Transit _ | Ast.While _
          | Ast.Send _ | Ast.ExprStmt _ );
        _ }
      :: _ ->
        err "util may contain only if-then-else and return"
  in
  let* branches = walk [] u.ubody [] in
  if branches = [] then err "util has no reachable return"
  else Ok branches

let eval_utility branch res =
  let env i = if i < Array.length res then res.(i) else 0. in
  List.fold_left
    (fun acc l -> Float.min acc (Lin.eval env l))
    infinity branch.utility

let branch_feasible branch res =
  let env i = if i < Array.length res then res.(i) else 0. in
  List.for_all (fun c -> Lin.eval env c >= -1e-9) branch.constraints

(* ------------------------------------------------------------------ *)
(* Filter evaluation (φ^s)                                              *)
(* ------------------------------------------------------------------ *)

let filter_atom head (arg : Value.t) =
  match (head, arg) with
  | _, Value.FilterV f -> Ok f
  | (Ast.SrcIP | Ast.DstIP), Value.Str s -> (
      match Farm_net.Ipaddr.Prefix.of_string_opt s with
      | Some p ->
          Ok
            (Filter.atom
               (if head = Ast.SrcIP then Filter.Src_ip p else Filter.Dst_ip p))
      | None -> Error (`Bad_prefix s))
  | Ast.SrcPort, v -> Ok (Filter.atom (Filter.Src_port (int_of_float (Value.as_num v))))
  | Ast.DstPort, v -> Ok (Filter.atom (Filter.Dst_port (int_of_float (Value.as_num v))))
  | Ast.PortF, v -> Ok (Filter.atom (Filter.Port (int_of_float (Value.as_num v))))
  | Ast.ProtoF, Value.Str s -> (
      match Farm_net.Flow.proto_of_string s with
      | Some p -> Ok (Filter.atom (Filter.Proto p))
      | None -> Error (`Bad_proto s))
  | _ -> Error `Bad_arg

let rec eval_filter ?(bindings = no_bindings) (e : Ast.expr) :
    (Filter.t, string) result =
  match e with
  | Ast.Bool true -> Ok Filter.True
  | Ast.Bool false -> Ok Filter.False
  | Ast.AnyLit -> Ok (Filter.atom Filter.Any)
  | Ast.Var v -> (
      match bindings v with
      | Some (Value.FilterV f) -> Ok f
      | Some _ -> err "variable %s is not a filter" v
      | None -> err "analysis: unbound filter variable %s" v)
  | Ast.Binop (Ast.And, a, b) ->
      let* fa = eval_filter ~bindings a in
      let* fb = eval_filter ~bindings b in
      Ok (Filter.And (fa, fb))
  | Ast.Binop (Ast.Or, a, b) ->
      let* fa = eval_filter ~bindings a in
      let* fb = eval_filter ~bindings b in
      Ok (Filter.Or (fa, fb))
  | Ast.Unop (Ast.Not, a) ->
      let* fa = eval_filter ~bindings a in
      Ok (Filter.Not fa)
  | Ast.FilterAtom (_, Ast.AnyLit) -> Ok (Filter.atom Filter.Any)
  | Ast.FilterAtom (head, arg) -> (
      (* the IP and protocol heads take a constant string, the port
         heads a constant integer *)
      let* v =
        match (head, arg) with
        | (Ast.SrcIP | Ast.DstIP | Ast.ProtoF), Ast.String s -> Ok (Value.Str s)
        | (Ast.SrcIP | Ast.DstIP | Ast.ProtoF), Ast.Var v -> (
            match bindings v with
            | Some (Value.Str _ as s) -> Ok s
            | _ -> err "filter argument %s is not a constant string" v)
        | (Ast.SrcIP | Ast.DstIP | Ast.ProtoF), _ ->
            err "expected a string filter argument"
        | _, Ast.Int i -> Ok (Value.Num (float_of_int i))
        | _, Ast.Var v -> (
            match bindings v with
            | Some (Value.Num _ as n) -> Ok n
            | _ -> err "filter argument %s is not a constant number" v)
        | _ -> err "expected a numeric filter argument"
      in
      match filter_atom head v with
      | Ok f -> Ok f
      | Error (`Bad_prefix s) -> err "bad IP prefix %S" s
      | Error (`Bad_proto s) -> err "unknown protocol %S" s
      | Error `Bad_arg -> err "bad filter atom argument")
  | _ -> err "expression is not a filter"

(* ------------------------------------------------------------------ *)
(* Polling analysis                                                     *)
(* ------------------------------------------------------------------ *)

type ival_spec = Const_ival of float | Inv_linear of Lin.t

let poll_rate spec res =
  match spec with
  | Const_ival iv -> if iv > 0. then 1. /. iv else 0.
  | Inv_linear l ->
      let env i = if i < Array.length res then res.(i) else 0. in
      Float.max 0. (Lin.eval env l)

(* Evaluate an ival expression as either linear or constant/linear
   (reciprocal form).  The paper requires the inverse of ival to be
   linear. *)
type rexpr = RLin of Lin.t | RQuot of float * Lin.t  (* c / lin *)

let rec eval_rexpr ~bindings (e : Ast.expr) : (rexpr, string) result =
  match e with
  | Ast.Binop (Ast.Div, a, b) -> (
      let* ra = eval_rexpr ~bindings a in
      let* rb = eval_rexpr ~bindings b in
      match (ra, rb) with
      | RLin la, RLin lb when Lin.is_constant lb ->
          if Lin.constant lb = 0. then err "ival divides by zero"
          else Ok (RLin (Lin.scale (1. /. Lin.constant lb) la))
      | RLin la, RLin lb when Lin.is_constant la ->
          Ok (RQuot (Lin.constant la, lb))
      | RQuot (c, l), RLin k when Lin.is_constant k && Lin.constant k <> 0. ->
          Ok (RQuot (c /. Lin.constant k, l))
      | _ -> err "ival must be constant or constant/linear(resources)")
  | Ast.Binop (Ast.Mul, a, b) -> (
      let* ra = eval_rexpr ~bindings a in
      let* rb = eval_rexpr ~bindings b in
      match (ra, rb) with
      | RLin la, RLin lb when Lin.is_constant la ->
          Ok (RLin (Lin.scale (Lin.constant la) lb))
      | RLin la, RLin lb when Lin.is_constant lb ->
          Ok (RLin (Lin.scale (Lin.constant lb) la))
      | RQuot (c, l), RLin k when Lin.is_constant k ->
          Ok (RQuot (c *. Lin.constant k, l))
      | RLin k, RQuot (c, l) when Lin.is_constant k ->
          Ok (RQuot (c *. Lin.constant k, l))
      | _ -> err "ival is not linear-invertible")
  | Ast.Binop (Ast.Add, a, b) | Ast.Binop (Ast.Sub, a, b) -> (
      let op = match e with Ast.Binop (Ast.Sub, _, _) -> Lin.sub | _ -> Lin.add in
      let* ra = eval_rexpr ~bindings a in
      let* rb = eval_rexpr ~bindings b in
      match (ra, rb) with
      | RLin la, RLin lb -> Ok (RLin (op la lb))
      | _ -> err "ival is not linear-invertible")
  | e ->
      let* l = to_linear ~bindings ~resvars:[] e in
      Ok (RLin l)

let ival_spec_of_expr ~bindings e : (ival_spec, string) result =
  let* r = eval_rexpr ~bindings e in
  match r with
  | RLin l when Lin.is_constant l ->
      let c = Lin.constant l in
      if c <= 0. then err "ival must be positive" else Ok (Const_ival c)
  | RLin _ ->
      err "ival must be constant or constant/linear so that 1/ival is linear"
  | RQuot (c, l) ->
      if c = 0. then err "ival must be positive"
      else Ok (Inv_linear (Lin.scale (1. /. c) l))

type poll_summary = {
  poll_name : string;
  ptrig : Ast.trigger_type;
  what : Filter.t;
  subjects : Filter.subject list;
  ival : ival_spec;
}

let polls ?(bindings = no_bindings) (m : Ast.machine) =
  List.fold_left
    (fun acc (t : Ast.trig_decl) ->
      let* acc = acc in
      match t.tinit with
      | None -> err "machine %s: trigger %s has no initializer" m.mname t.tname
      | Some (Ast.StructLit (_, fields)) ->
          let* ival =
            match List.assoc_opt "ival" fields with
            | Some e -> ival_spec_of_expr ~bindings e
            | None -> err "machine %s: trigger %s lacks .ival" m.mname t.tname
          in
          let* what =
            match (t.ttyp, List.assoc_opt "what" fields) with
            | Ast.Time, _ -> Ok Filter.True
            | _, Some e -> eval_filter ~bindings e
            | _, None ->
                err "machine %s: trigger %s lacks .what" m.mname t.tname
          in
          Ok
            ({ poll_name = t.tname; ptrig = t.ttyp; what;
               subjects = Filter.subjects what; ival }
            :: acc)
      | Some _ ->
          err "machine %s: trigger %s must be initialized with a struct"
            m.mname t.tname)
    (Ok []) m.mtrigs
  |> Result.map List.rev

(* ------------------------------------------------------------------ *)
(* Placement (π)                                                        *)
(* ------------------------------------------------------------------ *)

type seed_site = { candidates : int list; directive : int }

let eval_node_expr ~bindings ~topo (e : Ast.expr) : (int, string) result =
  match e with
  | Ast.Int i -> Ok i
  | Ast.String name | Ast.Var name -> (
      let by_binding () =
        match bindings name with
        | Some (Value.Num n) -> Some (int_of_float n)
        | Some (Value.Str s) -> (
            match
              List.find_opt
                (fun (n : Topology.node) -> n.name = s)
                (Topology.switches topo)
            with
            | Some n -> Some n.id
            | None -> None)
        | _ -> None
      in
      match
        List.find_opt
          (fun (n : Topology.node) -> n.name = name)
          (Topology.switches topo)
      with
      | Some n -> Ok n.id
      | None -> (
          match by_binding () with
          | Some id -> Ok id
          | None -> err "unknown switch %S in place directive" name))
  | _ -> err "place directive nodes must be ids or names"

let eval_int_expr ~bindings (e : Ast.expr) : (int, string) result =
  match e with
  | Ast.Int i -> Ok i
  | Ast.Var v -> (
      match bindings v with
      | Some (Value.Num n) -> Ok (int_of_float n)
      | _ -> err "range bound %s is not a constant" v)
  | _ -> err "range bound must be a constant integer"

let cmp_of_binop = function
  | Ast.Eq -> Ok ( = )
  | Ast.Le -> Ok ( <= )
  | Ast.Ge -> Ok ( >= )
  | Ast.Lt -> Ok ( < )
  | Ast.Gt -> Ok ( > )
  | op -> err "unsupported range comparison %s" (Ast.binop_to_string op)

(* Distance of switch index [i] on a switch-path of length [len] from the
   role's anchor. *)
let role_distance role i len =
  match role with
  | Ast.Sender -> i
  | Ast.Receiver -> len - 1 - i
  | Ast.Midpoint ->
      let mid2 = len - 1 in
      (* distance in full hops from the middle; for even-length paths both
         central switches are at distance 0 *)
      Stdlib.abs ((2 * i) - mid2) / 2

let placement ?(bindings = no_bindings) ~topo (m : Ast.machine) =
  let switch_ids = Topology.switch_ids topo in
  let resolve idx (p : Ast.place_decl) : (seed_site list, string) result =
    match p.pconstraint with
    | Ast.Anywhere -> (
        match p.pquant with
        | Ast.QAll ->
            Ok
              (List.map
                 (fun n -> { candidates = [ n ]; directive = idx })
                 switch_ids)
        | Ast.QAny -> Ok [ { candidates = switch_ids; directive = idx } ])
    | Ast.At_nodes es -> (
        let* ids =
          List.fold_left
            (fun acc e ->
              let* acc = acc in
              let* id = eval_node_expr ~bindings ~topo e in
              if not (List.mem id switch_ids) then
                err "node %d in place directive is not a switch" id
              else Ok (id :: acc))
            (Ok []) es
          |> Result.map List.rev
        in
        match p.pquant with
        | Ast.QAll ->
            Ok (List.map (fun n -> { candidates = [ n ]; directive = idx }) ids)
        | Ast.QAny -> Ok [ { candidates = ids; directive = idx } ])
    | Ast.On_range { role; pfilter; rop; rbound } ->
        let* f =
          match pfilter with
          | None -> Ok Filter.True
          | Some e -> eval_filter ~bindings e
        in
        let* bound = eval_int_expr ~bindings rbound in
        let* cmp = cmp_of_binop rop in
        let paths = Routing.paths_matching topo f in
        let match_set path =
          let sw = Routing.path_switches topo path in
          let len = List.length sw in
          List.filteri (fun i _ -> cmp (role_distance role i len) bound) sw
        in
        let per_path = List.map match_set paths in
        let per_path = List.filter (fun l -> l <> []) per_path in
        (match (p.pquant, rop) with
        | Ast.QAll, _ ->
            (* one pinned seed per matching node of every path *)
            Ok
              (List.concat_map
                 (fun nodes ->
                   List.map
                     (fun n -> { candidates = [ n ]; directive = idx })
                     nodes)
                 per_path)
        | Ast.QAny, Ast.Eq ->
            (* single seed: any of the matching nodes across paths *)
            let union =
              List.sort_uniq Int.compare (List.concat per_path)
            in
            if union = [] then Ok []
            else Ok [ { candidates = union; directive = idx } ]
        | Ast.QAny, _ ->
            (* one seed per path, choosable within the path's match set
               (the paper's π[[any receiver ex range <= 1]] example) *)
            Ok
              (List.map
                 (fun nodes -> { candidates = nodes; directive = idx })
                 per_path))
  in
  let places =
    if m.places = [] then
      [ { Ast.pquant = Ast.QAny; pconstraint = Ast.Anywhere;
          ploc = Ast.no_pos } ]
    else m.places
  in
  List.fold_left
    (fun acc (idx, p) ->
      let* acc = acc in
      let* sites = resolve idx p in
      Ok (acc @ sites))
    (Ok [])
    (List.mapi (fun i p -> (i, p)) places)

(* ------------------------------------------------------------------ *)
(* Whole-machine summary                                                *)
(* ------------------------------------------------------------------ *)

type summary = {
  machine : Ast.machine;
  seeds : seed_site list;
  state_utils : (string * util_summary) list;
  poll_vars : poll_summary list;
}

let summarize ?(bindings = no_bindings) ~topo (m : Ast.machine) =
  let* seeds = placement ~bindings ~topo m in
  let* poll_vars = polls ~bindings m in
  let* state_utils =
    List.fold_left
      (fun acc (s : Ast.state_decl) ->
        let* acc = acc in
        let* u =
          match s.sutil with
          | None -> Ok default_utility
          | Some u -> utility ~bindings u
        in
        Ok ((s.sname, u) :: acc))
      (Ok []) m.states
    |> Result.map List.rev
  in
  Ok { machine = m; seeds; state_utils; poll_vars }
