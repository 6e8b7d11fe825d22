(* A QCheck2 generator of well-typed Almanac programs, for the
   Interp-vs-Compiled differential in test_almanac.ml.

   A draw is a list of auxiliary functions plus one machine.  It is
   well-typed by construction (the property asserts that [Typecheck]
   accepts every draw) and aims at the places where the slot-compiled
   engine can drift from the scope-chain interpreter:
   - globals, state locals and frame locals of type int/long/float/bool/
     list, drawn from a four-name pool so the same name is declared at
     several levels with different types;
   - declarations inside [if] branches and [while] bodies, so a name can
     resolve to a frame slot on one path and to an outer variable on
     another (a read before the declaration in the next loop iteration);
   - every binop, [not] and negation, with [now()] and the effectful host
     builtin [tick] allowed in both operands (evaluation order shows);
   - [v = v + k], [v OP literal] and [v OP w] on the assignable numeric
     variables, the shapes the compiled engine fuses, where [v] may hold
     another kind or reach an outer binding;
   - the pure builtins [size], [nth], [append], [stat], [stats_size],
     [min], [max], [is_list_empty], [floor] and [abs];
   - [v = append(v, x)], the compiled engine's pending append on a frame
     list, alone and in bounded loops, with reads of [v] between the
     appends and after them ([size], an in-range [nth], [==] with another
     list or a literal, [send], an argument, a copy into another list
     variable, which snapshots then see, [return v]), an alias taken
     before them, and a list variable that holds another kind; [x] is
     mostly a number (the compiled engine packs such a run unboxed) and
     now and then another kind (the run is stored back and the append is
     plain);
   - forward (each index once or twice), backward and two-lists-in-turn
     [size] / [nth] scans;
   - functions with parameters and [return], called from handlers and
     from later functions (never recursively, so runs terminate);
   - early returns inside [if] and [while] bodies: [return e] in
     functions, a bare [return;] in event handlers;
   - [recv float] / [recv long] handlers, trigger bindings and [transit].

   [nth] returns an untyped value, so numeric and bool variables can hold
   values of another kind at run time; both engines must agree on those
   too.  Loops are bounded ([while (kD < n)] with a read-only counter). *)

open Farm_almanac
module G = QCheck2.Gen

let ( let* ) = G.( let* )
let ( let+ ) = G.( let+ )
let ( >>= ) = G.( >>= )

(* Value types the generator tracks; a numeric declaration draws one of
   int / long / float. *)
type ty = N | B | L | S

type var = { name : string; ty : ty; assignable : bool }

type fsig = { fname : string; params : ty list; ret : ty }

(* What a [return] may look like here: none (initializers), bare (event
   handlers) or with a value of the function's type *)
type ret_mode = No_return | Bare | Value of ty

type ctx = {
  vars : var list;  (* lexical scope, innermost first *)
  funcs : fsig list;  (* callable auxiliary functions *)
  states : string list;  (* transit targets; [] where transit is unsafe *)
  loop : int;  (* while nesting depth *)
  returns : ret_mode;
  in_block : bool;  (* inside an [if] or [while] body *)
}

let pool = [ "a"; "b"; "x"; "y" ]

(* The effectful host builtin the differential driver provides: logs its
   argument and returns it plus a per-instance call count. *)
let extra_sigs =
  [ ("tick", { Typecheck.args = [ Typecheck.Numeric ]; ret = Typecheck.Numeric }) ]

let st ?(loc = Ast.no_pos) sk = Ast.stmt ~loc sk

(* Innermost binding of each name, as the type checker resolves it. *)
let visible ctx =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun v ->
      if Hashtbl.mem seen v.name then false
      else begin
        Hashtbl.replace seen v.name ();
        true
      end)
    ctx.vars

let vars_of ctx ty = List.filter (fun v -> v.ty = ty) (visible ctx)

let num_typ = G.oneofl [ Ast.Tint; Ast.Tlong; Ast.Tfloat ]

let ast_typ = function
  | N -> num_typ
  | B -> G.return Ast.Tbool
  | L -> G.return Ast.Tlist
  | S -> G.return Ast.Tstats

let num_lit =
  G.frequency
    [ (4, G.map (fun i -> Ast.Int i) (G.int_range 0 4));
      (1, G.oneofl [ Ast.Int 7; Ast.Int 100; Ast.Float 0.5; Ast.Float 2.25; Ast.Float 0.1 ]) ]

let call f args = Ast.Call (f, args)

(* [strict]: no untyped [nth] at the top, for the operands of and/or/not,
   which the type checker wants to be bool, not "any" *)
let rec expr ?(strict = false) ctx ty d : Ast.expr G.t =
  let var_g =
    match vars_of ctx ty with
    | [] -> []
    | vs -> [ (3, G.map (fun v -> Ast.Var v.name) (G.oneofl vs)) ]
  in
  let leaf =
    match ty with
    | N -> num_lit
    | B -> G.map (fun b -> Ast.Bool b) G.bool
    | L -> list_lit ctx 0
    | S -> (
        (* only drawn where a stats binding is in scope *)
        match vars_of ctx S with
        | v :: _ -> G.return (Ast.Var v.name)
        | [] -> G.return (Ast.ListLit []))
  in
  let effects =
    (* effects at the leaves too, so both operands of a binop often have one *)
    if ty = N then
      [ (1, G.return (call "now" []));
        (1, G.map (fun x -> call "tick" [ x ]) num_lit) ]
    else []
  in
  if d <= 0 then G.frequency (((2, leaf) :: var_g) @ effects)
  else
    let sub t = G.delay (fun () -> expr ctx t (d - 1)) in
    let strict_b () = G.delay (fun () -> expr ~strict:true ctx B (d - 1)) in
    let has_stats = vars_of ctx S <> [] in
    let user =
      match List.filter (fun f -> f.ret = ty) ctx.funcs with
      | [] -> []
      | fs ->
          [ ( 1,
              let* f = G.oneofl fs in
              let+ args = G.flatten_l (List.map sub f.params) in
              call f.fname args ) ]
    in
    let nth =
      let* l = sub L in
      let+ i = G.frequency [ (3, G.return (Ast.Int 0)); (1, sub N) ] in
      call "nth" [ l; i ]
    in
    (* [v OP literal] and [v OP w] on the assignable numeric variables,
       the compiled engine's fused comparison shapes; such a variable
       may hold another kind (via [nth]) or be unbound on this path *)
    let compare_vars =
      match List.filter (fun v -> v.assignable) (vars_of ctx N) with
      | [] -> []
      | vs ->
          let var = G.map (fun v -> Ast.Var v.name) (G.oneofl vs) in
          [ ( 2,
              let* op = G.oneofl [ Ast.Le; Ast.Ge; Ast.Lt; Ast.Gt ] in
              let* a = var in
              let+ b = G.frequency [ (1, num_lit); (1, var) ] in
              Ast.Binop (op, a, b) ) ]
    in
    match ty with
    | N ->
        G.frequency
          ((2, leaf) :: var_g
          @ user
          @ [ (1, G.map (fun e -> Ast.Unop (Ast.Neg, e)) (sub N));
              (5, arith ctx d);
              (1, G.map (fun l -> call "size" [ l ]) (sub L));
              (1, nth);
              ( 1,
                let* f = G.oneofl [ "min"; "max" ] in
                let* a = sub N in
                let+ b = sub N in
                call f [ a; b ] );
              ( 1,
                let* f = G.oneofl [ "floor"; "abs" ] in
                let+ a = sub N in
                call f [ a ] );
              (1, G.return (call "now" []));
              (1, G.map (fun a -> call "tick" [ a ]) (sub N)) ]
          @
          if has_stats then
            [ (2, G.map (fun i -> call "stat" [ Ast.Var "st"; i ]) (index ctx d));
              (1, G.return (call "stats_size" [ Ast.Var "st" ])) ]
          else [])
    | B ->
        G.frequency
          ((2, leaf) :: var_g
          @ user
          @ [ (1, G.map (fun e -> Ast.Unop (Ast.Not, e)) (strict_b ()));
              ( 2,
                let* op = G.oneofl [ Ast.And; Ast.Or ] in
                let* a = strict_b () in
                let+ b = strict_b () in
                Ast.Binop (op, a, b) );
              ( 3,
                let* op = G.oneofl [ Ast.Le; Ast.Ge; Ast.Lt; Ast.Gt ] in
                let* a = sub N in
                let+ b = sub N in
                Ast.Binop (op, a, b) );
              ( 3,
                let* op = G.oneofl [ Ast.Eq; Ast.Neq ] in
                let* t = G.frequencyl [ (3, N); (1, B); (1, L) ] in
                let* a = sub t in
                let+ b = sub t in
                Ast.Binop (op, a, b) );
              (1, G.map (fun l -> call "is_list_empty" [ l ]) (sub L)) ]
          @ compare_vars
          @ if strict then [] else [ (1, nth) ])
    | L ->
        G.frequency
          ((2, leaf) :: var_g
          @ user
          @ [ (2, list_lit ctx (d - 1));
              ( 2,
                let* l = sub L in
                let+ x = G.frequency [ (3, sub N); (1, sub B) ] in
                call "append" [ l; x ] );
              (1, nth) ])
    | S -> leaf

(* arithmetic; a divisor is mostly kept away from zero *)
and arith ctx d =
  let sub t = G.delay (fun () -> expr ctx t (d - 1)) in
  let* op = G.oneofl [ Ast.Add; Ast.Sub; Ast.Mul; Ast.Div ] in
  let* a = sub N in
  let+ b =
    if op = Ast.Div then
      G.frequency
        [ (3, G.map (fun e -> Ast.Binop (Ast.Add, call "abs" [ e ], Ast.Int 1)) (sub N));
          (1, sub N) ]
    else sub N
  in
  Ast.Binop (op, a, b)

(* a stats index: mostly in range (the driver's stats have 16 counters) *)
and index ctx d =
  G.frequency
    [ (3, G.map (fun i -> Ast.Int i) (G.int_range 0 15));
      (1, expr ctx N (d - 1)) ]

(* mostly numbers; now and then a bool, a string or a list, so [nth] can
   put a value of another kind where a number is declared *)
and list_lit ctx d =
  let elem =
    G.frequency
      [ (12, if d > 0 then expr ctx N (d - 1) else num_lit);
        (3, G.map (fun b -> Ast.Bool b) G.bool);
        (1, G.return (Ast.String "s"));
        (1, G.return (Ast.ListLit [ Ast.Int 1 ])) ]
  in
  G.map (fun es -> Ast.ListLit es) (G.list_size (G.int_range 0 3) elem)

let rec stmts ctx d n : Ast.stmt list G.t =
  if n <= 0 then G.return []
  else
    let* s, ctx' = stmt ctx d in
    let+ rest = stmts ctx' d (n - 1) in
    s @ rest

and stmt ctx d : (Ast.stmt list * ctx) G.t =
  let assignable = List.filter (fun v -> v.assignable) (visible ctx) in
  let decl =
    let* name = G.oneofl pool in
    let* t = G.frequencyl [ (3, N); (1, B); (1, L) ] in
    let* typ = ast_typ t in
    let+ init = G.frequency [ (5, G.map Option.some (expr ctx t 2)); (1, G.return None) ] in
    ( [ st (Ast.Decl (typ, name, init)) ],
      { ctx with vars = { name; ty = t; assignable = true } :: ctx.vars } )
  in
  let assign () =
    let* v = G.oneofl assignable in
    let+ e = expr ctx v.ty 2 in
    ([ st (Ast.Assign (v.name, e)) ], ctx)
  in
  (* [v = v + k], the fused increment, on an assignable numeric
     variable (the loop counters [kD] are read-only) *)
  let increment vs =
    let* v = G.oneofl vs in
    let+ k = num_lit in
    ([ st (Ast.Assign (v.name, Ast.Binop (Ast.Add, Ast.Var v.name, k))) ], ctx)
  in
  let numeric_assignable = List.filter (fun v -> v.ty = N) assignable in
  let if_ =
    let* c = expr ctx B 2 in
    let block = { ctx with in_block = true } in
    let* th = G.int_range 1 3 >>= stmts block (d - 1) in
    let+ el = G.int_range 0 2 >>= stmts block (d - 1) in
    ([ st (Ast.If (c, th, el)) ], ctx)
  in
  let while_ =
    let k = Printf.sprintf "k%d" ctx.loop in
    let kv = { name = k; ty = N; assignable = false } in
    let* bound = G.int_range 1 3 in
    let inner =
      { ctx with loop = ctx.loop + 1; vars = kv :: ctx.vars; in_block = true }
    in
    let+ body = G.int_range 1 3 >>= stmts inner (d - 1) in
    let step = st (Ast.Assign (k, Ast.Binop (Ast.Add, Ast.Var k, Ast.Int 1))) in
    ( [ st (Ast.Decl (Ast.Tlong, k, Some (Ast.Int 0)));
        st (Ast.While (Ast.Binop (Ast.Lt, Ast.Var k, Ast.Int bound), body @ [ step ])) ],
      { ctx with vars = kv :: ctx.vars } )
  in
  let transit () =
    let+ s = G.oneofl ctx.states in
    ([ st (Ast.Transit (Ast.Var s)) ], ctx)
  in
  let send =
    let* t = G.frequencyl [ (2, N); (1, B); (1, L) ] in
    let+ e = expr ctx t 2 in
    ([ st (Ast.Send (e, Ast.Harvester)) ], ctx)
  in
  let effect =
    let* f = G.oneofl [ "tick"; "log" ] in
    let+ e = expr ctx N 2 in
    ([ st (Ast.ExprStmt (call f [ e ])) ], ctx)
  in
  (* an early return, which ends the body with the statements after it
     (and the rest of an enclosing loop) unrun *)
  let return_ =
    match ctx.returns with
    | Value t ->
        [ ( 1,
            let+ e = expr ctx t 2 in
            ([ st (Ast.Return (Some e)) ], ctx) ) ]
    | Bare -> [ (1, G.return ([ st (Ast.Return None) ], ctx)) ]
    | No_return -> []
  in
  let lists = List.filter (fun v -> v.ty = L) assignable in
  let in_loop = d > 0 && ctx.loop < 2 in
  G.frequency
    (List.concat
       [ [ (3, decl) ];
         (if assignable <> [] then [ (4, assign ()) ] else []);
         (if numeric_assignable <> [] then [ (2, increment numeric_assignable) ] else []);
         (if lists <> [] then [ (2, append_self ctx lists) ] else []);
         (if in_loop then [ (1, build ctx) ] else []);
         (if in_loop && vars_of ctx L <> [] then [ (1, scan ctx) ] else []);
         (if d > 0 then [ (2, if_) ] else []);
         (if d > 0 && ctx.loop < 2 then [ (1, while_) ] else []);
         (if ctx.states <> [] then [ (1, transit ()) ] else []);
         (if ctx.in_block then return_ else []);
         [ (1, send); (1, effect) ] ])

(* [v = append(v, x)]: on a frame variable, the compiled engine's
   pending append; [x] is mostly a number, now and then an untyped [nth]
   or a bool *)
and append_self ctx lists =
  let* v = G.oneofl lists in
  let+ x = elem ctx in
  ([ st (Ast.Assign (v.name, call "append" [ Ast.Var v.name; x ])) ], ctx)

and elem ctx =
  G.frequency [ (4, expr ctx N 1); (1, expr ctx B 1); (1, mixed_nth) ]

(* an untyped value of some kind: a bool, a number or a list *)
and mixed_nth =
  G.map
    (fun i ->
      call "nth"
        [ Ast.ListLit [ Ast.Bool true; Ast.Int 3; Ast.ListLit [ Ast.Int 1 ] ]; Ast.Int i ])
    (G.int_range 0 2)

(* The loop counter of nesting depth [ctx.loop], read-only to the other
   statements. *)
and counter ctx =
  let k = Printf.sprintf "k%d" ctx.loop in
  (k, { name = k; ty = N; assignable = false })

(* A read of list [v] between or after appends: whole, by [size], by an
   in-range [nth], compared with another list or a literal, copied into
   another list variable, or passed to a function *)
and list_read ctx v k : Ast.stmt list G.t =
  let send e = st (Ast.Send (e, Ast.Harvester)) in
  let others = List.filter (fun w -> w.name <> v) (vars_of ctx L) in
  let targets = List.filter (fun w -> w.assignable) others in
  let takes_list = List.filter (fun f -> List.mem L f.params) ctx.funcs in
  G.frequency
    (List.concat
       [ [ (2, G.return [ send (Ast.Var v) ]);
           (2, G.return [ send (call "size" [ Ast.Var v ]) ]);
           ( 2,
             G.return
               [ st
                   (Ast.If
                      ( Ast.Binop (Ast.Lt, Ast.Var k, call "size" [ Ast.Var v ]),
                        [ send (call "nth" [ Ast.Var v; Ast.Var k ]) ],
                        [] )) ] );
           (1, G.return [ send (call "nth" [ Ast.Var v; Ast.Int 0 ]) ]) ];
         [ ( 1,
             let+ n = G.int_range 0 3 in
             [ send
                 (Ast.Binop
                    (Ast.Eq, Ast.Var v, Ast.ListLit (List.init n (fun i -> Ast.Int i))))
             ] ) ];
         (match others with
         | [] -> []
         | ws ->
             [ ( 2,
                 let+ w = G.oneofl ws in
                 [ send (Ast.Binop (Ast.Eq, Ast.Var v, Ast.Var w.name)) ] ) ]);
         (match targets with
         | [] -> []
         | ws ->
             [ ( 1,
                 let+ w = G.oneofl ws in
                 [ st (Ast.Assign (w.name, Ast.Var v)) ] ) ]);
         (match takes_list with
         | [] -> []
         | fs ->
             [ ( 2,
                 let* f = G.oneofl fs in
                 let first = ref true in
                 let+ args =
                   G.flatten_l
                     (List.map
                        (fun t ->
                          if t = L && !first then begin
                            first := false;
                            G.return (Ast.Var v)
                          end
                          else expr ctx t 0)
                        f.params)
                 in
                 [ send (call f.fname args) ] ) ]) ])

(* A list built by appends in a bounded loop, with reads between the
   appends and after the loop.  The list is a new frame variable (now
   and then holding another kind, from an untyped [nth]), or one in
   scope; an alias may be taken before the appends. *)
and build ctx : (Ast.stmt list * ctx) G.t =
  let* fresh = G.frequencyl [ (2, true); (1, false) ] in
  let* v, decls, ctx =
    if fresh || vars_of ctx L = [] then
      let* name = G.oneofl pool in
      let+ init =
        G.frequency
          [ (2, G.return (Ast.ListLit [])); (4, expr ctx L 1); (1, mixed_nth) ]
      in
      ( name,
        [ st (Ast.Decl (Ast.Tlist, name, Some init)) ],
        { ctx with vars = { name; ty = L; assignable = true } :: ctx.vars } )
    else
      let+ v = G.oneofl (vars_of ctx L) in
      (v.name, [], ctx)
  in
  let* alias, ctx =
    G.frequency
      [ (2, G.return ([], ctx));
        ( 1,
          let+ w = G.oneofl (List.filter (fun n -> n <> v) pool) in
          ( [ st (Ast.Decl (Ast.Tlist, w, Some (Ast.Var v))) ],
            { ctx with vars = { name = w; ty = L; assignable = true } :: ctx.vars } ) ) ]
  in
  let k, kv = counter ctx in
  let inner = { ctx with loop = ctx.loop + 1; vars = kv :: ctx.vars } in
  let* bound = G.int_range 1 4 in
  let* x = elem inner in
  let* reads = G.int_range 0 2 >>= fun n -> G.list_repeat n (list_read inner v k) in
  let* second = G.frequency [ (3, G.return []); (1, G.map (fun (s, _) -> s) (append_self inner [ { name = v; ty = L; assignable = true } ])) ] in
  let+ after =
    G.frequency
      [ (1, G.return []);
        (2, list_read inner v k);
        ( 1,
          (* a value of another kind after the loop's numbers *)
          let* x = G.frequency [ (2, expr inner B 0); (1, mixed_nth) ] in
          let+ read = list_read inner v k in
          st (Ast.Assign (v, call "append" [ Ast.Var v; x ])) :: read ) ]
  in
  let append = st (Ast.Assign (v, call "append" [ Ast.Var v; x ])) in
  let step = st (Ast.Assign (k, Ast.Binop (Ast.Add, Ast.Var k, Ast.Int 1))) in
  ( decls @ alias
    @ [ st (Ast.Decl (Ast.Tlong, k, Some (Ast.Int 0)));
        st
          (Ast.While
             ( Ast.Binop (Ast.Lt, Ast.Var k, Ast.Int bound),
               (append :: List.concat reads) @ second @ [ step ] )) ]
    @ after,
    { ctx with vars = kv :: ctx.vars } )

(* [size] / [nth] scans: forward (each index once or twice), backward,
   or over two lists in turn through one [nth] site *)
and scan ctx : (Ast.stmt list * ctx) G.t =
  let k, kv = counter ctx in
  let ctx' = { ctx with vars = kv :: ctx.vars } in
  let* v = G.map (fun v -> v.name) (G.oneofl (vars_of ctx L)) in
  let* w = G.map (fun v -> v.name) (G.oneofl (vars_of ctx L)) in
  let send e = st (Ast.Send (e, Ast.Harvester)) in
  let size l = call "size" [ Ast.Var l ] in
  let nth l i = call "nth" [ Ast.Var l; i ] in
  let step op = st (Ast.Assign (k, Ast.Binop (op, Ast.Var k, Ast.Int 1))) in
  let+ shape = G.int_range 0 3 in
  let body =
    match shape with
    | 0 | 1 ->
        (* forward, the index read once or twice *)
        let read = send (nth v (Ast.Var k)) in
        [ st (Ast.Decl (Ast.Tlong, k, Some (Ast.Int 0)));
          st
            (Ast.While
               ( Ast.Binop (Ast.Lt, Ast.Var k, size v),
                 (if shape = 0 then [ read ] else [ read; send (size v); read ])
                 @ [ step Ast.Add ] )) ]
    | 2 ->
        [ st (Ast.Decl (Ast.Tlong, k, Some (Ast.Binop (Ast.Sub, size v, Ast.Int 1))));
          st
            (Ast.While
               ( Ast.Binop (Ast.Ge, Ast.Var k, Ast.Int 0),
                 [ send (nth v (Ast.Var k)); step Ast.Sub ] )) ]
    | _ ->
        (* one [nth] site sees [v], then [w], at each index *)
        let inner = Printf.sprintf "k%d" (ctx.loop + 1) in
        [ st (Ast.Decl (Ast.Tlong, k, Some (Ast.Int 0)));
          st
            (Ast.While
               ( Ast.Binop (Ast.Lt, Ast.Var k, Ast.Int 3),
                 [ st (Ast.Decl (Ast.Tlong, inner, Some (Ast.Int 0)));
                   st
                     (Ast.While
                        ( Ast.Binop (Ast.Lt, Ast.Var inner, Ast.Int 2),
                          [ st (Ast.Decl (Ast.Tlist, "u", Some (Ast.Var v)));
                            st
                              (Ast.If
                                 ( Ast.Binop (Ast.Gt, Ast.Var inner, Ast.Int 0),
                                   [ st (Ast.Assign ("u", Ast.Var w)) ],
                                   [] ));
                            st
                              (Ast.If
                                 ( Ast.Binop (Ast.Lt, Ast.Var k, size "u"),
                                   [ send (nth "u" (Ast.Var k)) ],
                                   [] ));
                            st
                              (Ast.Assign
                                 (inner, Ast.Binop (Ast.Add, Ast.Var inner, Ast.Int 1))) ] ));
                   step Ast.Add ] )) ]
  in
  (body, ctx')

(* Function [fi]: parameters from the pool, a body, then [return]. *)
let func funcs i : (Ast.func_decl * fsig) G.t =
  let fname = Printf.sprintf "f%d" i in
  let* ret = G.oneofl [ N; L ] in
  let* np = G.int_range 1 2 in
  let* names = G.map (fun l -> List.filteri (fun j _ -> j < np) l) (G.shuffle_l pool) in
  let* ptys = G.flatten_l (List.map (fun _ -> G.frequencyl [ (3, N); (1, B); (1, L) ]) names) in
  let* ptyps = G.flatten_l (List.map ast_typ ptys) in
  let ctx =
    { vars = List.map2 (fun name ty -> { name; ty; assignable = true }) names ptys;
      funcs; states = []; loop = 0; returns = Value ret; in_block = false }
  in
  let* n = G.int_range 0 3 in
  let* body = stmts ctx 2 n in
  let* ret_typ = ast_typ ret in
  (* the body's own declarations are visible to the return expression *)
  let ret_ctx =
    List.fold_left
      (fun c (s : Ast.stmt) ->
        match s.Ast.sk with
        | Ast.Decl (t, name, _) ->
            let ty =
              match t with
              | Ast.Tbool -> B
              | Ast.Tlist -> L
              | _ -> N
            in
            { c with vars = { name; ty; assignable = true } :: c.vars }
        | _ -> c)
      ctx body
  in
  let+ r = expr ret_ctx ret 2 in
  ( { Ast.fname; fret = ret_typ; fparams = List.combine ptyps names;
      fbody = body @ [ st (Ast.Return (Some r)) ]; floc = Ast.no_pos },
    { fname; params = ptys; ret } )

let rec funcs_upto i n acc_decls acc_sigs =
  if i >= n then G.return (List.rev acc_decls, acc_sigs)
  else
    let* fd, fs = func acc_sigs i in
    funcs_upto (i + 1) n (fd :: acc_decls) (acc_sigs @ [ fs ])

(* [d] = 0 for globals: their initializers run at instantiation, where an
   error would escape the driver, so they stay literals and reads *)
let var_decl ctx ~d name t =
  let* typ = ast_typ t in
  let+ init = G.frequency [ (4, G.map Option.some (expr ctx t d)); (1, G.return None) ] in
  { Ast.is_external = false; vtyp = typ; vname = name; vinit = init; vloc = Ast.no_pos }

let state_names = [ "s0"; "s1"; "s2" ]

let event ctx trigger body_ctx_vars ~transit =
  let ctx = { ctx with vars = body_ctx_vars @ ctx.vars; states = (if transit then ctx.states else []) } in
  let* n = G.int_range 1 5 in
  let+ body = stmts ctx 2 n in
  { Ast.trigger; body; evloc = Ast.no_pos }

let machine funcs : Ast.machine G.t =
  (* globals: a subset of the pool, plus the external [th] *)
  let* gnames = G.map (List.filter (fun (_, keep) -> keep)) (G.flatten_l (List.map (fun n -> G.map (fun b -> (n, b)) G.bool) pool)) in
  let gnames = List.map fst gnames in
  let* gtys = G.flatten_l (List.map (fun _ -> G.frequencyl [ (3, N); (1, B); (1, L) ]) gnames) in
  let th = { name = "th"; ty = N; assignable = true } in
  (* initializers see the globals declared before them *)
  let* mvars, gvars =
    List.fold_left
      (fun acc (name, t) ->
        let* decls, vars = acc in
        let ctx =
          { vars; funcs = []; states = []; loop = 0; returns = No_return;
            in_block = false }
        in
        let+ decl = var_decl ctx ~d:0 name t in
        (decls @ [ decl ], { name; ty = t; assignable = true } :: vars))
      (G.return ([], [ th ]))
      (List.combine gnames gtys)
  in
  let th_decl =
    { Ast.is_external = true; vtyp = Ast.Tfloat; vname = "th";
      vinit = Some (Ast.Float 1.5); vloc = Ast.no_pos }
  in
  let* nstates = G.int_range 2 3 in
  let snames = List.filteri (fun i _ -> i < nstates) state_names in
  let base =
    { vars = gvars; funcs; states = snames; loop = 0; returns = Bare;
      in_block = false }
  in
  let* states =
    G.flatten_l
      (List.map
         (fun sname ->
           (* locals: pool names, possibly shadowing globals with another
              type; initializers see every local of the state, as in the
              type checker *)
           let* lnames = G.map (List.filter (fun (_, keep) -> keep)) (G.flatten_l (List.map (fun n -> G.map (fun b -> (n, b)) (G.frequencyl [ (2, false); (1, true) ])) pool)) in
           let lnames = List.map fst lnames in
           let* ltys = G.flatten_l (List.map (fun _ -> G.frequencyl [ (3, N); (1, B); (1, L) ]) lnames) in
           let lvars = List.map2 (fun name ty -> { name; ty; assignable = true }) lnames ltys in
           let sctx = { base with vars = lvars @ base.vars } in
           let* slocals =
             G.flatten_l (List.map2 (fun name t -> var_decl { sctx with funcs = [] } ~d:1 name t) lnames ltys)
           in
           let opt g = G.frequency [ (1, G.return None); (2, G.map Option.some g) ] in
           let* enter = opt (event sctx Ast.On_enter [] ~transit:false) in
           let* exit_ = G.frequency [ (3, G.return None); (1, G.map Option.some (event sctx Ast.On_exit [] ~transit:false)) ] in
           let* poll =
             opt
               (event sctx
                  (Ast.On_trigger_var ("pollStats", Some "st"))
                  [ { name = "st"; ty = S; assignable = false } ]
                  ~transit:true)
           in
           let+ clock =
             opt
               (event sctx
                  (Ast.On_trigger_var ("clock", Some "t"))
                  [ { name = "t"; ty = N; assignable = true } ]
                  ~transit:true)
           in
           { Ast.sname; slocals; sutil = None;
             sevents = List.filter_map Fun.id [ enter; exit_; poll; clock ];
             stloc = Ast.no_pos })
         snames)
  in
  let* recv_f =
    event base (Ast.On_recv (Ast.Tfloat, "v", Ast.Harvester))
      [ { name = "v"; ty = N; assignable = true } ] ~transit:true
  in
  let* recv_l =
    event base (Ast.On_recv (Ast.Tlong, "w", Ast.Harvester))
      [ { name = "w"; ty = N; assignable = true } ] ~transit:true
  in
  let+ clock =
    event base
      (Ast.On_trigger_var ("clock", Some "t"))
      [ { name = "t"; ty = N; assignable = true } ]
      ~transit:true
  in
  let trig ttyp tname e = { Ast.ttyp; tname; tinit = Some e; tloc = Ast.no_pos } in
  { Ast.mname = "Gen"; extends = None;
    places = [ { Ast.pquant = Ast.QAll; pconstraint = Ast.Anywhere; ploc = Ast.no_pos } ];
    mvars = th_decl :: mvars;
    mtrigs =
      [ trig Ast.Poll "pollStats"
          (Ast.StructLit
             ("Poll", [ ("ival", Ast.Float 0.001); ("what", Ast.FilterAtom (Ast.PortF, Ast.AnyLit)) ]));
        trig Ast.Time "clock" (Ast.StructLit ("Time", [ ("ival", Ast.Float 0.01) ])) ];
    states; mevents = [ recv_f; recv_l; clock ]; mloc = Ast.no_pos }

(* A program and the externals its machine is instantiated with. *)
let program : (Ast.program * (string * Value.t) list) G.t =
  let* nf = G.int_range 0 2 in
  let* funcs, sigs = funcs_upto 0 nf [] [] in
  let+ m = machine sigs in
  ({ Ast.funcs; machines = [ m ] }, [ ("th", Value.Num 2.5) ])
