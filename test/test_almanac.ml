(* Tests for the Almanac DSL: lexer, parser, pretty-printer round-trip,
   type checker (incl. the util restrictions of §III-A f), inheritance,
   static analyses (placement π, utility κ/ε, polling φ_enc) and the
   interpreter running the paper's heavy-hitter seed (List. 2). *)

open Farm_almanac
module Filter = Farm_net.Filter
module Lin = Farm_optim.Lin_expr

(* The paper's List. 2 example, with the auxiliary functions provided by
   the host. *)
let hh_source =
  {|
machine HH {
  place all;
  poll pollStats = Poll {
    .ival = 10 / res().PCIe, .what = port ANY
  };
  external long threshold = 1000;
  action hitterAction;
  list hitters;
  state observe {
    util (res) {
      if (res.vCPU >= 1 and res.RAM >= 100) then {
        return min(res.vCPU, res.PCIe);
      }
    }
    when (pollStats as stats) do {
      hitters = getHH(stats, threshold);
      if (not is_list_empty(hitters)) then {
        transit HHdetected;
      }
    }
  }
  state HHdetected {
    util (res) { return 100; }
    when (enter) do {
      send hitters to harvester;
      setHitterRules(hitters, hitterAction);
      transit observe;
    }
  }
  when (recv long newTh from harvester)
  do { threshold = newTh; }
  when (recv action hitAct from harvester)
  do { hitterAction = hitAct; }
}
|}

let hh_extra_sigs =
  [ ("getHH",
     { Typecheck.args = [ Typecheck.Ty Ast.Tstats; Typecheck.Numeric ];
       ret = Typecheck.Ty Ast.Tlist });
    ("setHitterRules",
     { Typecheck.args = [ Typecheck.Ty Ast.Tlist; Typecheck.Ty Ast.Taction ];
       ret = Typecheck.Ty Ast.Tunit }) ]

let parse_hh () = Parser.program hh_source
let check_hh () = Typecheck.check ~extra:hh_extra_sigs (parse_hh ())

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

(* The tokens of [src], in order, as (token, line, column). *)
let lex src =
  let { Lexer.toks; len } = Lexer.tokenize src in
  List.init len (fun i ->
      let { Lexer.token; line; col } = toks.(i) in
      (token, line, col))

let kinds src = List.map (fun (t, _, _) -> t) (lex src)

let test_lexer_basic () =
  Alcotest.(check bool) "token stream" true
    (kinds "machine M { long x = 10; } // comment"
    = [ Token.KW_MACHINE; Token.IDENT "M"; Token.LBRACE; Token.KW_LONG;
        Token.IDENT "x"; Token.ASSIGN; Token.INT 10; Token.SEMI;
        Token.RBRACE; Token.EOF ])

let test_lexer_operators () =
  Alcotest.(check bool) "operators" true
    (kinds "== <> <= >= < > = + - * /"
    = [ Token.EQ; Token.NEQ; Token.LE; Token.GE; Token.LT; Token.GT;
        Token.ASSIGN; Token.PLUS; Token.MINUS; Token.STAR; Token.SLASH;
        Token.EOF ])

let test_lexer_comments_strings () =
  Alcotest.(check bool) "comments skipped" true
    (kinds "/* block\ncomment */ \"a string\" 3.25 // rest"
    = [ Token.STRING "a string"; Token.FLOAT 3.25; Token.EOF ])

let test_lexer_scientific_notation () =
  Alcotest.(check bool) "e-notation floats" true
    (kinds "1e-3 2.5E6 7e2 3e"
    = [ Token.FLOAT 1e-3; Token.FLOAT 2.5e6; Token.FLOAT 7e2;
        (* "3e" is an int followed by an identifier *)
        Token.INT 3; Token.IDENT "e"; Token.EOF ])

let test_lexer_errors () =
  Alcotest.check_raises "unterminated string"
    (Lexer.Error ({ Ast.line = 1; col = 1 }, "unterminated string"))
    (fun () -> ignore (Lexer.tokenize "\"oops"));
  (match Lexer.tokenize "x # y" with
  | _ -> Alcotest.fail "expected lexical error"
  | exception Lexer.Error _ -> ())

let test_lexer_positions () =
  match lex "a\n  b" with
  | [ (_, la, ca); (_, lb, cb); _eof ] ->
      Alcotest.(check (pair int int)) "a at 1:1" (1, 1) (la, ca);
      Alcotest.(check (pair int int)) "b at 2:3" (2, 3) (lb, cb)
  | _ -> Alcotest.fail "expected 3 tokens"

(* Every entry of [Token.keyword_table] lexes to its token, and
   [Token.to_string] names it. *)
let test_lexer_keywords () =
  List.iter
    (fun (kw, tok) ->
      (match kinds kw with
      | [ t; Token.EOF ] when Token.equal t tok -> ()
      | _ -> Alcotest.failf "%S does not lex to its keyword" kw);
      Alcotest.(check string) (kw ^ " named") (Printf.sprintf "keyword %S" kw)
        (Token.to_string tok);
      (* a keyword with a trailing underscore is an identifier *)
      Alcotest.(check bool) (kw ^ "_ is an identifier") true
        (kinds (kw ^ "_") = [ Token.IDENT (kw ^ "_"); Token.EOF ]))
    Token.keyword_table;
  Alcotest.(check bool) "soft keyword" true
    (kinds "stats" = [ Token.IDENT "stats"; Token.EOF ])

(* The lexer against the frozen reference ([Ref_lexer], the lexer as it
   was before it read by index): on every source, the same tokens at the
   same positions, or the same error at the same position with the same
   message, or the same exception. *)
type lexed =
  | Tokens of (Token.t * int * int) list
  | Lex_error of Ast.pos * string
  | Raised of string

let lexed_by_lexer src =
  match lex src with
  | ts -> Tokens ts
  | exception Lexer.Error (p, m) -> Lex_error (p, m)
  | exception e -> Raised (Printexc.to_string e)

let lexed_by_reference src =
  match Ref_lexer.tokenize src with
  | ts ->
      Tokens
        (List.map (fun { Ref_lexer.token; line; col } -> (token, line, col)) ts)
  | exception Ref_lexer.Error (p, m) -> Lex_error (p, m)
  | exception e -> Raised (Printexc.to_string e)

let alm_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".alm")
  |> List.sort compare
  |> List.map (fun f ->
         In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all)

(* the catalog, the generated-program corpus, the lint fixtures and the
   shipped examples *)
let lexer_sources =
  lazy
    (List.map
       (fun (e : Farm_tasks.Task_common.entry) -> e.source)
       Farm_tasks.Catalog.all
    @ alm_files "almanac_corpus" @ alm_files "lint_fixtures"
    @ alm_files "../examples")

(* Edits that reach the lexer's error and corner paths: a stray
   character, an unterminated string or block comment, a block comment
   over a line end with tokens after it on its last line, exponent forms,
   an int too large for [int_of_string], strings that span lines or end
   on an escape, CRLF line ends, and a cut. *)
let lexer_mutations =
  let insert text src at =
    String.sub src 0 at ^ text ^ String.sub src at (String.length src - at)
  in
  [ ("stray #", insert "#");
    ("open string", insert "\"");
    ("open block comment", insert "/*");
    ("multi-line block comment", insert " /* a\n  b */ ");
    ("line comment", insert "//");
    ("3e", insert " 3e ");
    ("1e-3", insert " 1e-3 2.5E+6 1.e 7.5e ");
    ("long int", insert " 12345678901234567890123 999999999999999999 ");
    ("multi-line string", insert " \"a\nb\\\n c\\\"\\n\" ");
    ("string ending on an escape", fun src _ -> src ^ "\"ab\\");
    ("CRLF", fun src _ -> String.concat "\r\n" (String.split_on_char '\n' src));
    ("cut", fun src at -> String.sub src 0 at) ]

let check_lexer_agrees ~what src =
  if lexed_by_lexer src <> lexed_by_reference src then
    Alcotest.failf "lexer and reference differ on %s:\n%s" what src

let test_lexer_reference () =
  let sources = Lazy.force lexer_sources in
  Alcotest.(check int) "catalog sources" 17
    (List.length Farm_tasks.Catalog.all);
  List.iteri
    (fun k src ->
      check_lexer_agrees ~what:(Printf.sprintf "source %d" k) src;
      List.iter
        (fun (name, mutate) ->
          List.iter
            (fun at ->
              check_lexer_agrees
                ~what:(Printf.sprintf "source %d, %s at %d" k name at)
                (mutate src at))
            [ 0; String.length src / 3; String.length src / 2;
              String.length src ])
        lexer_mutations)
    sources

let prop_lexer_reference =
  let open QCheck2.Gen in
  let source =
    oneof
      [ map
          (fun i ->
            let sources = Lazy.force lexer_sources in
            List.nth sources (i mod List.length sources))
          nat;
        map (fun (p, _) -> Pretty.program_to_string p) Almanac_gen.program ]
  in
  let mutation =
    let* k = int_bound (List.length lexer_mutations) in
    let+ f = float_bound_inclusive 1. in
    (k, f)
  in
  QCheck2.Test.make ~name:"lexer = frozen reference on mutated sources"
    ~count:300 ~long_factor:25
    ~print:(fun (src, (k, f)) ->
      Printf.sprintf "mutation %d at %g of\n%s" k f src)
    (pair source mutation)
    (fun (src, (k, f)) ->
      let src =
        match List.nth_opt lexer_mutations k with
        | None -> src
        | Some (_, mutate) ->
            mutate src (int_of_float (f *. float_of_int (String.length src)))
      in
      lexed_by_lexer src = lexed_by_reference src)

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let test_parse_hh () =
  let p = parse_hh () in
  Alcotest.(check int) "one machine" 1 (List.length p.machines);
  let m = List.hd p.machines in
  Alcotest.(check string) "name" "HH" m.mname;
  Alcotest.(check int) "two states" 2 (List.length m.states);
  Alcotest.(check int) "two machine events" 2 (List.length m.mevents);
  Alcotest.(check int) "three vars" 3 (List.length m.mvars);
  Alcotest.(check int) "one trigger" 1 (List.length m.mtrigs);
  let obs = List.hd m.states in
  Alcotest.(check string) "initial state" "observe" obs.sname;
  Alcotest.(check bool) "has util" true (obs.sutil <> None);
  (* external flag *)
  let th =
    List.find (fun (v : Ast.var_decl) -> v.vname = "threshold") m.mvars
  in
  Alcotest.(check bool) "threshold is external" true th.is_external

let test_parse_expr_precedence () =
  (* 1 + 2 * 3 parses as 1 + (2 * 3) *)
  match Parser.expression "1 + 2 * 3" with
  | Ast.Binop (Ast.Add, Ast.Int 1, Ast.Binop (Ast.Mul, Ast.Int 2, Ast.Int 3))
    ->
      ()
  | e -> Alcotest.failf "bad precedence: %s" (Pretty.expr_to_string e)

let test_parse_and_or_precedence () =
  (* a or b and c = a or (b and c) *)
  match Parser.expression "x or y and z" with
  | Ast.Binop (Ast.Or, Ast.Var "x", Ast.Binop (Ast.And, _, _)) -> ()
  | e -> Alcotest.failf "bad precedence: %s" (Pretty.expr_to_string e)

let test_parse_filter_exprs () =
  (match Parser.expression {|srcIP "10.1.1.4" and dstIP "10.0.1.0/24"|} with
  | Ast.Binop
      ( Ast.And,
        Ast.FilterAtom (Ast.SrcIP, Ast.String "10.1.1.4"),
        Ast.FilterAtom (Ast.DstIP, Ast.String "10.0.1.0/24") ) ->
      ()
  | e -> Alcotest.failf "bad filter parse: %s" (Pretty.expr_to_string e));
  match Parser.expression "port ANY" with
  | Ast.FilterAtom (Ast.PortF, Ast.AnyLit) -> ()
  | e -> Alcotest.failf "bad ANY parse: %s" (Pretty.expr_to_string e)

let test_parse_struct_lit () =
  match Parser.expression {|Poll { .ival = 10, .what = port 80 }|} with
  | Ast.StructLit ("Poll", [ ("ival", Ast.Int 10); ("what", _) ]) -> ()
  | e -> Alcotest.failf "bad struct parse: %s" (Pretty.expr_to_string e)

let test_parse_place_variants () =
  let src q =
    Printf.sprintf "machine M { %s long x; state s { } }" q
  in
  let place_of q =
    let p = Parser.program (src q) in
    (List.hd p.machines).places
  in
  (match place_of "place all;" with
  | [ { Ast.pquant = Ast.QAll; pconstraint = Ast.Anywhere; _ } ] -> ()
  | _ -> Alcotest.fail "place all");
  (match place_of "place any 1, 2, 3;" with
  | [ { Ast.pquant = Ast.QAny; pconstraint = Ast.At_nodes [ _; _; _ ]; _ } ] ->
      ()
  | _ -> Alcotest.fail "place any nodes");
  match place_of {|place any receiver srcIP "10.1.1.4" range <= 1;|} with
  | [ { Ast.pquant = Ast.QAny;
        pconstraint =
          Ast.On_range { role = Ast.Receiver; pfilter = Some _;
                         rop = Ast.Le; rbound = Ast.Int 1 };
        _ } ] ->
      ()
  | _ -> Alcotest.fail "place range"

let test_parse_fundec () =
  let p =
    Parser.program
      {|
long double_it(long x) { return x * 2; }
machine M { long y; state s { } }
|}
  in
  Alcotest.(check int) "one function" 1 (List.length p.funcs);
  let f = List.hd p.funcs in
  Alcotest.(check string) "name" "double_it" f.fname;
  Alcotest.(check int) "one param" 1 (List.length f.fparams)

let test_parse_else_if_chain () =
  let p =
    Parser.program
      {|machine M { long x; state s { when (enter) do {
          if (x == 1) then { x = 10; }
          else if (x == 2) then { x = 20; }
          else { x = 30; }
        } } }|}
  in
  let m = List.hd p.machines in
  match (List.hd m.states).sevents with
  | [ { body =
          [ { Ast.sk =
                Ast.If
                  ( _, _,
                    [ { Ast.sk =
                          Ast.If
                            (_, _, [ { Ast.sk = Ast.Assign ("x", _); _ } ]);
                        _ } ] );
              _ } ];
        _ } ] ->
      ()
  | _ -> Alcotest.fail "else-if chain shape"

let test_string_concat () =
  let p =
    Typecheck.check
      (Parser.program
         {|machine M { string s = "a" + "b";
           state q { when (enter) do { s = s + "!"; } } }|})
  in
  let t = Interp.create ~program:p ~machine:"M" Host.null_host in
  Interp.start t;
  match Interp.var t "s" with
  | Some (Value.Str v) -> Alcotest.(check string) "concat" "ab!" v
  | _ -> Alcotest.fail "s unbound"

let test_parse_errors () =
  let expect_error src =
    match Parser.program src with
    | _ -> Alcotest.failf "expected syntax error in %S" src
    | exception Parser.Error _ -> ()
  in
  expect_error "machine { }";
  expect_error "machine M { state s { when (enter) { } } }";
  (* missing do *)
  expect_error "machine M { place; }";
  expect_error "machine M state s { }"

(* round-trip: parse -> pretty -> parse yields the same AST *)
let test_roundtrip_small_floats () =
  (* the lexer has no exponent notation: tiny ivals must still round-trip *)
  List.iter
    (fun f ->
      let e = Ast.Float f in
      let s = Pretty.expr_to_string e in
      match Parser.expression s with
      | Ast.Float f' ->
          Alcotest.(check bool)
            (Printf.sprintf "%g round-trips via %s" f s)
            true
            (Float.abs (f -. f') <= Float.abs f *. 1e-12)
      | _ -> Alcotest.failf "%s did not parse as a float" s)
    [ 0.001; 1e-5; 2.5e-7; 123.456; 0.1 ]

let test_roundtrip_hh () =
  let p1 = parse_hh () in
  let printed = Pretty.program_to_string p1 in
  let p2 =
    try Parser.program printed
    with Parser.Error m ->
      Alcotest.failf "re-parse failed: %s\n%s" m printed
  in
  Alcotest.(check bool) "round trip" true
    (Ast.strip_pos p1 = Ast.strip_pos p2)

(* expression round-trip property over generated expressions *)
let gen_expr =
  let open QCheck2.Gen in
  let leaf =
    oneof
      [ map (fun i -> Ast.Int i) (int_range 0 100);
        map (fun b -> Ast.Bool b) bool;
        return (Ast.Var "x");
        return (Ast.Var "y");
        map (fun s -> Ast.String s) (string_size ~gen:(char_range 'a' 'z') (return 3)) ]
  in
  let rec go depth =
    if depth = 0 then leaf
    else
      oneof
        [ leaf;
          map2
            (fun op (a, b) -> Ast.Binop (op, a, b))
            (oneofl [ Ast.Add; Ast.Sub; Ast.Mul; Ast.Le; Ast.Eq ])
            (pair (go (depth - 1)) (go (depth - 1)));
          map (fun a -> Ast.Unop (Ast.Not, a)) (go (depth - 1));
          map (fun a -> Ast.Call ("f", [ a ])) (go (depth - 1));
          map (fun a -> Ast.Field (a, "g")) (go (depth - 1)) ]
  in
  go 4

let prop_expr_roundtrip =
  QCheck2.Test.make ~name:"expression pretty/parse round-trip" ~count:300
    gen_expr (fun e ->
      let s = Pretty.expr_to_string e in
      match Parser.expression s with
      | e' -> e = e'
      | exception Parser.Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Typecheck                                                           *)
(* ------------------------------------------------------------------ *)

let test_typecheck_hh () = ignore (check_hh ())

let expect_type_error ?(extra = []) src frag =
  match Typecheck.check ~extra (Parser.program src) with
  | _ -> Alcotest.failf "expected type error mentioning %S" frag
  | exception Typecheck.Error m ->
      let contains =
        let lm = String.lowercase_ascii m
        and lf = String.lowercase_ascii frag in
        let n = String.length lf in
        let found = ref false in
        for i = 0 to String.length lm - n do
          if String.sub lm i n = lf then found := true
        done;
        !found
      in
      if not contains then
        Alcotest.failf "error %S does not mention %S" m frag

let test_typecheck_unbound () =
  expect_type_error
    "machine M { long x; state s { when (enter) do { x = yy; } } }"
    "unbound variable yy"

let test_typecheck_bad_transit () =
  expect_type_error
    "machine M { long x; state s { when (enter) do { transit nowhere; } } }"
    "unknown state"

let test_typecheck_type_mismatch () =
  expect_type_error
    {|machine M { long x; state s { when (enter) do { x = "hi"; } } }|}
    "assigning string"

let test_typecheck_util_restrictions () =
  (* while in util *)
  expect_type_error
    {|machine M { long x; state s {
        util (r) { while (true) { } return 1; } } }|}
    "util";
  (* call other than min/max *)
  expect_type_error
    {|machine M { long x; state s {
        util (r) { return size([]); } } }|}
    "min and max";
  (* send in util *)
  expect_type_error
    {|machine M { long x; state s {
        util (r) { send 1 to harvester; return 1; } } }|}
    "util";
  (* < is not in the allowed op set *)
  expect_type_error
    {|machine M { long x; state s {
        util (r) { if (r.vCPU < 1) then { return 1; } return 2; } } }|}
    "not allowed in util"

let test_typecheck_unknown_resource () =
  expect_type_error
    {|machine M { long x; state s {
        util (r) { if (r.GPU >= 1) then { return 1; } return 0; } } }|}
    "unknown resource"

let test_typecheck_rejects_string_arith () =
  expect_type_error
    {|machine M { string s; state q { when (enter) do { s = s - "x"; } } }|}
    "arithmetic"

let test_typecheck_duplicate_state () =
  expect_type_error "machine M { long x; state s { } state s { } }"
    "duplicate state"

let test_typecheck_trigger_event () =
  expect_type_error
    {|machine M { long x; state s { when (noSuchTrigger as v) do { } } }|}
    "unknown trigger"

(* inheritance *)
let hhh_source =
  hh_source
  ^ {|
machine HHH extends HH {
  state HHdetected {
    util (res) { return 200; }
    when (enter) do {
      send hitters to harvester;
      transit observe;
    }
  }
}
|}

let test_inheritance_override () =
  let p = Typecheck.check ~extra:hh_extra_sigs (Parser.program hhh_source) in
  let hhh =
    List.find (fun (m : Ast.machine) -> m.mname = "HHH") p.machines
  in
  Alcotest.(check bool) "inheritance flattened" true (hhh.extends = None);
  Alcotest.(check int) "two states" 2 (List.length hhh.states);
  Alcotest.(check string) "initial state kept" "observe"
    (List.hd hhh.states).sname;
  (* overridden state has the child's util *)
  let det =
    List.find (fun (s : Ast.state_decl) -> s.sname = "HHdetected") hhh.states
  in
  (match det.sutil with
  | Some { ubody = [ { Ast.sk = Ast.Return (Some (Ast.Int 200)); _ } ]; _ } ->
      ()
  | _ -> Alcotest.fail "child util must override");
  (* variables inherited *)
  Alcotest.(check int) "vars inherited" 3 (List.length hhh.mvars)

let test_inheritance_no_shadowing () =
  expect_type_error ~extra:hh_extra_sigs
    (hh_source ^ "machine H2 extends HH { long threshold; state s { } }")
    "shadows"

let test_inheritance_cycle () =
  expect_type_error
    {|machine A extends B { long x; state s { } }
      machine B extends A { long y; state t { } }|}
    "cycle"

(* ------------------------------------------------------------------ *)
(* Analysis                                                            *)
(* ------------------------------------------------------------------ *)

let hh_machine () =
  let p = check_hh () in
  List.hd p.machines

let test_analysis_utility_kappa () =
  (* paper §III-B b: κ[[res.vCPU >= 1 and res.RAM >= 100]]
       = { r1 - 1, r2 - 100 }  and u = min(vCPU, PCIe) *)
  let m = hh_machine () in
  let obs = List.hd m.states in
  let u = Option.get obs.sutil in
  match Analysis.utility u with
  | Error e -> Alcotest.fail e
  | Ok [ branch ] ->
      Alcotest.(check int) "two constraints" 2
        (List.length branch.constraints);
      let vcpu = Analysis.resource_index Analysis.VCpu in
      let ram = Analysis.resource_index Analysis.Ram in
      let pcie = Analysis.resource_index Analysis.Pcie in
      let c1 = List.nth branch.constraints 0 in
      Alcotest.(check bool) "r_vcpu - 1 >= 0" true
        (Lin.equal c1 Lin.(sub (var vcpu) (const 1.)));
      let c2 = List.nth branch.constraints 1 in
      Alcotest.(check bool) "r_ram - 100 >= 0" true
        (Lin.equal c2 Lin.(sub (var ram) (const 100.)));
      (* min(vCPU, PCIe): two linear pieces *)
      Alcotest.(check int) "min of two" 2 (List.length branch.utility);
      let vals = [ Lin.var vcpu; Lin.var pcie ] in
      List.iter
        (fun piece ->
          Alcotest.(check bool) "piece is vCPU or PCIe" true
            (List.exists (Lin.equal piece) vals))
        branch.utility
  | Ok bs -> Alcotest.failf "expected 1 branch, got %d" (List.length bs)

let test_analysis_utility_or_split () =
  let src =
    {|machine M { long x; state s {
        util (r) {
          if (r.vCPU >= 1 or r.RAM >= 50) then { return r.vCPU; }
        } } }|}
  in
  let p = Typecheck.check (Parser.program src) in
  let m = List.hd p.machines in
  let u = Option.get (List.hd m.states).sutil in
  match Analysis.utility u with
  | Ok branches -> Alcotest.(check int) "or splits into 2" 2 (List.length branches)
  | Error e -> Alcotest.fail e

let test_analysis_utility_max_split () =
  let src =
    {|machine M { long x; state s {
        util (r) { return max(r.vCPU, 2 * r.RAM); } } }|}
  in
  let p = Typecheck.check (Parser.program src) in
  let u = Option.get (List.hd (List.hd p.machines).states).sutil in
  match Analysis.utility u with
  | Ok branches ->
      Alcotest.(check int) "max splits into 2" 2 (List.length branches)
  | Error e -> Alcotest.fail e

let test_analysis_utility_nonlinear_rejected () =
  let src =
    {|machine M { long x; state s {
        util (r) { return r.vCPU * r.RAM; } } }|}
  in
  let p = Typecheck.check (Parser.program src) in
  let u = Option.get (List.hd (List.hd p.machines).states).sutil in
  match Analysis.utility u with
  | Ok _ -> Alcotest.fail "nonlinear utility must be rejected"
  | Error m ->
      Alcotest.(check bool) "mentions non-linear" true
        (String.length m > 0)

let test_analysis_eval_utility () =
  let m = hh_machine () in
  let u = Option.get (List.hd m.states).sutil in
  match Analysis.utility u with
  | Error e -> Alcotest.fail e
  | Ok [ branch ] ->
      (* res = vCPU 2, RAM 200, TCAM 0, PCIe 0.5: min(2, 0.5) = 0.5 *)
      let res = [| 2.; 200.; 0.; 0.5 |] in
      Alcotest.(check bool) "feasible" true
        (Analysis.branch_feasible branch res);
      Alcotest.(check (float 1e-9)) "value" 0.5
        (Analysis.eval_utility branch res);
      let res_bad = [| 0.5; 200.; 0.; 0.5 |] in
      Alcotest.(check bool) "infeasible below vCPU 1" false
        (Analysis.branch_feasible branch res_bad)
  | Ok _ -> Alcotest.fail "expected one branch"

let test_analysis_polls () =
  let m = hh_machine () in
  match Analysis.polls m with
  | Error e -> Alcotest.fail e
  | Ok [ p ] ->
      Alcotest.(check string) "name" "pollStats" p.poll_name;
      Alcotest.(check bool) "subject all ports" true
        (p.subjects = [ Filter.All_ports ]);
      (match p.ival with
      | Analysis.Inv_linear inv ->
          (* ival = 10/PCIe  =>  1/ival = PCIe/10 *)
          let pcie = Analysis.resource_index Analysis.Pcie in
          Alcotest.(check bool) "inverse linear PCIe/10" true
            (Lin.equal inv (Lin.var ~coeff:0.1 pcie));
          (* with 5 units of PCIe the seed polls every 2 time units *)
          let res = Array.make 4 0. in
          res.(pcie) <- 5.;
          Alcotest.(check (float 1e-9)) "rate" 0.5
            (Analysis.poll_rate p.ival res)
      | Analysis.Const_ival _ -> Alcotest.fail "expected resource-dependent ival")
  | Ok ps -> Alcotest.failf "expected 1 poll, got %d" (List.length ps)

let test_analysis_const_ival () =
  let src =
    {|machine M { poll p = Poll { .ival = 0.01, .what = port 80 };
      long x; state s { } }|}
  in
  let p = Typecheck.check (Parser.program src) in
  match Analysis.polls (List.hd p.machines) with
  | Ok [ poll ] -> (
      match poll.ival with
      | Analysis.Const_ival iv ->
          Alcotest.(check (float 1e-12)) "10ms" 0.01 iv;
          Alcotest.(check bool) "port-80 subject" true
            (poll.subjects = [ Filter.Port_counter 80 ])
      | Analysis.Inv_linear _ -> Alcotest.fail "expected constant ival")
  | Ok _ | Error _ -> Alcotest.fail "poll analysis failed"

(* Placement π against a topology *)
let topo () = Farm_net.Topology.spine_leaf ~spines:2 ~leaves:3 ~hosts_per_leaf:2

let test_analysis_place_all () =
  let m = hh_machine () in
  let topo = topo () in
  match Analysis.placement ~topo m with
  | Error e -> Alcotest.fail e
  | Ok seeds ->
      (* place all: one pinned seed per switch (5 switches) *)
      Alcotest.(check int) "one seed per switch" 5 (List.length seeds);
      List.iter
        (fun (s : Analysis.seed_site) ->
          Alcotest.(check int) "pinned" 1 (List.length s.candidates))
        seeds

let test_analysis_place_any () =
  let src = "machine M { place any; long x; state s { } }" in
  let p = Typecheck.check (Parser.program src) in
  let topo = topo () in
  match Analysis.placement ~topo (List.hd p.machines) with
  | Ok [ s ] -> Alcotest.(check int) "all candidates" 5 (List.length s.candidates)
  | Ok _ | Error _ -> Alcotest.fail "expected a single seed"

let test_analysis_place_range () =
  (* receiver range == 0 over traffic to host1_0 (10.2.1.0/24): the seed
     must sit on the receiving leaf (leaf1). *)
  let src =
    {|machine M {
        place any receiver dstIP "10.2.1.0/24" range == 0;
        long x; state s { } }|}
  in
  let p = Typecheck.check (Parser.program src) in
  let topo = topo () in
  match Analysis.placement ~topo (List.hd p.machines) with
  | Ok [ s ] ->
      let names =
        List.map
          (fun id -> (Farm_net.Topology.node topo id).name)
          s.candidates
      in
      Alcotest.(check (list string)) "receiving leaf" [ "leaf1" ] names
  | Ok seeds ->
      Alcotest.failf "expected a single seed, got %d" (List.length seeds)
  | Error e -> Alcotest.fail e

let test_analysis_place_midpoint () =
  (* midpoint range == 0 over cross-leaf traffic: candidates are spines *)
  let src =
    {|machine M {
        place all midpoint srcIP "10.1.0.0/16" and dstIP "10.2.0.0/16" range == 0;
        long x; state s { } }|}
  in
  let p = Typecheck.check (Parser.program src) in
  let topo = topo () in
  match Analysis.placement ~topo (List.hd p.machines) with
  | Ok seeds ->
      Alcotest.(check bool) "some seeds" true (seeds <> []);
      List.iter
        (fun (s : Analysis.seed_site) ->
          List.iter
            (fun id ->
              let name = (Farm_net.Topology.node topo id).name in
              Alcotest.(check bool)
                (Printf.sprintf "%s is a spine" name)
                true
                (String.length name >= 5 && String.sub name 0 5 = "spine"))
            s.candidates)
        seeds
  | Error e -> Alcotest.fail e

let test_analysis_place_nodes_by_name () =
  let src =
    {|machine M { place any "leaf0", "leaf2"; long x; state s { } }|}
  in
  let p = Typecheck.check (Parser.program src) in
  let topo = topo () in
  match Analysis.placement ~topo (List.hd p.machines) with
  | Ok [ s ] -> Alcotest.(check int) "two candidates" 2 (List.length s.candidates)
  | Ok _ | Error _ -> Alcotest.fail "expected one seed over two switches"

(* ------------------------------------------------------------------ *)
(* Interpreter                                                         *)
(* ------------------------------------------------------------------ *)

type sent = { to_harvester : Value.t list ref }

let make_host ?(resources = [| 2.; 200.; 10.; 5. |]) () =
  let sent = { to_harvester = ref [] } in
  let tcam_rules = ref [] in
  let host =
    { Host.null_host with
      h_resources = (fun () -> resources);
      h_send =
        (fun target v ->
          match target with
          | Host.To_harvester -> sent.to_harvester := v :: !(sent.to_harvester)
          | Host.To_machine _ -> ());
      h_builtin =
        (fun name ->
          match name with
          | "getHH" ->
              Some
                (fun args ->
                  match args with
                  | [ Value.Stats stats; Value.Num threshold ] ->
                      let hitters = ref [] in
                      Array.iteri
                        (fun i v ->
                          if v > threshold then
                            hitters := Value.Num (float_of_int i) :: !hitters)
                        stats;
                      Value.List (List.rev !hitters)
                  | _ -> Alcotest.fail "getHH misuse")
          | "setHitterRules" ->
              Some
                (fun args ->
                  tcam_rules := args :: !tcam_rules;
                  Value.Unit)
          | _ -> None) }
  in
  (host, sent, tcam_rules)

let make_hh ?externals () =
  let p = check_hh () in
  let host, sent, rules = make_host () in
  let t = Interp.create ?externals ~program:p ~machine:"HH" host in
  Interp.start t;
  (t, sent, rules)

let test_interp_initial_state () =
  let t, _, _ = make_hh () in
  Alcotest.(check string) "starts in observe" "observe"
    (Interp.current_state t);
  (* external default from initializer *)
  match Interp.var t "threshold" with
  | Some (Value.Num n) -> Alcotest.(check (float 0.)) "threshold" 1000. n
  | _ -> Alcotest.fail "threshold must be bound"

let test_interp_externals_override () =
  let p = check_hh () in
  let host, _, _ = make_host () in
  let t =
    Interp.create
      ~externals:[ ("threshold", Value.Num 5.) ]
      ~program:p ~machine:"HH" host
  in
  Interp.start t;
  match Interp.var t "threshold" with
  | Some (Value.Num n) -> Alcotest.(check (float 0.)) "overridden" 5. n
  | _ -> Alcotest.fail "threshold must be bound"

let test_interp_poll_no_hh () =
  let t, sent, _ = make_hh () in
  Interp.prepare_trigger t "pollStats" (Value.Stats [| 10.; 20.; 30. |]);
  Alcotest.(check string) "stays in observe" "observe"
    (Interp.current_state t);
  Alcotest.(check int) "nothing sent" 0 (List.length !(sent.to_harvester))

let test_interp_poll_detects_hh () =
  let t, sent, rules = make_hh () in
  (* port 1 exceeds the threshold of 1000 *)
  Interp.prepare_trigger t "pollStats" (Value.Stats [| 10.; 5000.; 30. |]);
  (* HHdetected's enter handler sends to harvester, installs rules and
     transits straight back to observe *)
  Alcotest.(check string) "back in observe" "observe"
    (Interp.current_state t);
  Alcotest.(check int) "one message to harvester" 1
    (List.length !(sent.to_harvester));
  (match !(sent.to_harvester) with
  | [ Value.List [ Value.Num p ] ] ->
      Alcotest.(check (float 0.)) "port 1 reported" 1. p
  | _ -> Alcotest.fail "expected hitters list");
  Alcotest.(check int) "local reaction fired" 1 (List.length !rules)

let test_interp_recv_updates_threshold () =
  let t, sent, _ = make_hh () in
  let consumed =
    Interp.deliver t ~from:Host.From_harvester (Value.Num 9999.)
  in
  Alcotest.(check bool) "recv consumed" true consumed;
  (match Interp.var t "threshold" with
  | Some (Value.Num n) -> Alcotest.(check (float 0.)) "updated" 9999. n
  | _ -> Alcotest.fail "threshold must be bound");
  (* below the new threshold: no detection *)
  Interp.prepare_trigger t "pollStats" (Value.Stats [| 5000. |]);
  Alcotest.(check int) "no detection below threshold" 0
    (List.length !(sent.to_harvester));
  (* recv of an action value matches the second machine event *)
  let consumed =
    Interp.deliver t ~from:Host.From_harvester
      (Value.Action Farm_net.Tcam.Drop)
  in
  Alcotest.(check bool) "action recv consumed" true consumed;
  match Interp.var t "hitterAction" with
  | Some (Value.Action Farm_net.Tcam.Drop) -> ()
  | _ -> Alcotest.fail "hitterAction must be updated"

let test_interp_unmatched_recv () =
  let t, _, _ = make_hh () in
  (* no recv pattern for a string from a machine *)
  let consumed =
    Interp.deliver t ~from:(Host.From_machine "Other") (Value.Str "hi")
  in
  Alcotest.(check bool) "not consumed" false consumed

let test_interp_snapshot_restore () =
  let t, _, _ = make_hh () in
  ignore (Interp.deliver t ~from:Host.From_harvester (Value.Num 777.));
  let vars, state = Interp.snapshot t in
  (* fresh instance on another "switch" *)
  let p = check_hh () in
  let host, _, _ = make_host () in
  let t2 = Interp.create ~program:p ~machine:"HH" host in
  Interp.restore t2 ~vars ~state;
  Alcotest.(check string) "state restored" state (Interp.current_state t2);
  match Interp.var t2 "threshold" with
  | Some (Value.Num n) -> Alcotest.(check (float 0.)) "migrated threshold" 777. n
  | _ -> Alcotest.fail "threshold must survive migration"

let test_interp_almanac_function () =
  let src =
    {|
long tri(long n) {
  long acc = 0;
  long i = 0;
  while (i <= n) { acc = acc + i; i = i + 1; }
  return acc;
}
machine M {
  long x;
  state s {
    when (enter) do { x = tri(4); }
    when (recv long n from harvester) do { x = tri(n); }
  }
}
|}
  in
  let p = Typecheck.check (Parser.program src) in
  let t = Interp.create ~program:p ~machine:"M" Host.null_host in
  Interp.start t;
  (match Interp.var t "x" with
  | Some (Value.Num n) -> Alcotest.(check (float 0.)) "tri(4)=10" 10. n
  | _ -> Alcotest.fail "x must be set");
  Alcotest.(check bool) "recv consumed" true
    (Interp.deliver t ~from:Host.From_harvester (Value.Num 5.));
  match Interp.var t "x" with
  | Some (Value.Num n) -> Alcotest.(check (float 0.)) "tri(5)=15" 15. n
  | _ -> Alcotest.fail "tri must return a number"

let test_interp_state_locals_reset () =
  let src =
    {|machine M {
        long total = 0;
        state a {
          long cnt = 0;
          when (recv long x from harvester) do {
            cnt = cnt + x;
            total = total + cnt;
            if (cnt >= 2) then { transit b; }
          }
        }
        state b {
          when (recv long x from harvester) do { transit a; }
        }
      }|}
  in
  let p = Typecheck.check (Parser.program src) in
  let t = Interp.create ~program:p ~machine:"M" Host.null_host in
  Interp.start t;
  ignore (Interp.deliver t ~from:Host.From_harvester (Value.Num 1.));
  ignore (Interp.deliver t ~from:Host.From_harvester (Value.Num 1.));
  Alcotest.(check string) "moved to b" "b" (Interp.current_state t);
  ignore (Interp.deliver t ~from:Host.From_harvester (Value.Num 1.));
  Alcotest.(check string) "back to a" "a" (Interp.current_state t);
  (* cnt was reset on re-entry *)
  match Interp.var t "cnt" with
  | Some (Value.Num n) -> Alcotest.(check (float 0.)) "locals reset" 0. n
  | _ -> Alcotest.fail "cnt must exist in state a"

(* A state's own events for a trigger replace the machine-level ones;
   where it has none, the machine's run.  A message runs the first arm
   that accepts it, state arms before machine arms. *)
let test_state_overrides_machine () =
  let src =
    {|machine M {
        time clock = Time { .ival = 1 };
        long s = 0;
        long m = 0;
        state a {
          when (clock) do { s = s + 1; transit b; }
          when (recv long x from harvester) do { s = s + 10; }
        }
        state b { }
        when (clock) do { m = m + 1; }
        when (recv long y from harvester) do { m = m + 10; }
      }|}
  in
  let p = Typecheck.check (Parser.program src) in
  List.iter
    (fun (engine, name) ->
      let t =
        Engine.instantiate (Engine.prepare ~engine ~program:p ~machine:"M")
          Host.null_host
      in
      Engine.start t;
      let deliver () =
        ignore (Engine.deliver t ~from:Host.From_harvester (Value.Num 1.))
      in
      deliver ();
      Engine.prepare_trigger t "clock" (Value.Num 0.);
      Engine.prepare_trigger t "clock" (Value.Num 0.);
      deliver ();
      let get v = Option.map Value.to_string (Engine.var t v) in
      Alcotest.(check (option string)) (name ^ ": s") (Some "11") (get "s");
      Alcotest.(check (option string)) (name ^ ": m") (Some "11") (get "m"))
    [ (`Interp, "interp"); (`Compiled, "compiled") ]

let test_interp_trigger_reassign_notifies () =
  let notified = ref [] in
  let src =
    {|machine M {
        poll p = Poll { .ival = 1, .what = port ANY };
        long x;
        state s {
          when (p as stats) do {
            p = Poll { .ival = 10, .what = port ANY };
          }
        }
      }|}
  in
  let prog = Typecheck.check (Parser.program src) in
  let host =
    { Host.null_host with
      h_set_trigger = (fun name _ v -> notified := (name, v) :: !notified) }
  in
  let t = Interp.create ~program:prog ~machine:"M" host in
  Interp.start t;
  Interp.prepare_trigger t "p" (Value.Stats [| 1. |]);
  match !notified with
  | [ ("p", Value.Struct ("Poll", _)) ] -> ()
  | _ -> Alcotest.fail "host must be notified of the polling-rate change"

(* runtime error behaviour *)
let test_interp_runtime_errors () =
  let src =
    {|
machine M {
  long x;
  list l = [];
  state s {
    when (recv long cmd from harvester) do {
      if (cmd == 1) then { x = 1 / 0; }
      if (cmd == 2) then { x = nth(l, 5); }
      if (cmd == 3) then { while (true) { x = x + 1; } }
    }
  }
}
|}
  in
  let p = Typecheck.check (Parser.program src) in
  let t = Interp.create ~program:p ~machine:"M" Host.null_host in
  Interp.start t;
  let expect cmd frag =
    match Interp.deliver t ~from:Host.From_harvester (Value.Num cmd) with
    | _ -> Alcotest.failf "expected runtime error for cmd %g" cmd
    | exception Host.Runtime_error m ->
        Alcotest.(check bool)
          (Printf.sprintf "%g mentions %s (got %s)" cmd frag m)
          true
          (let lm = String.lowercase_ascii m in
           let n = String.length frag in
           let found = ref false in
           for i = 0 to String.length lm - n do
             if String.sub lm i n = frag then found := true
           done;
           !found)
  in
  expect 1. "division by zero";
  expect 2. "out of bounds";
  expect 3. "budget"

let test_interp_machine_to_machine_send () =
  (* a seed sending to another machine type routes through h_send *)
  let src =
    {|
machine A {
  long x;
  state s {
    when (recv long go from harvester) do { send 7 to B; }
  }
}
machine B {
  long got = 0;
  state s {
    when (recv long v from A) do { got = v; }
  }
}
|}
  in
  let p = Typecheck.check (Parser.program src) in
  let b = ref None in
  let host_a =
    { Host.null_host with
      h_send =
        (fun target v ->
          match (target, !b) with
          | Host.To_machine ("B", _), Some bi ->
              ignore (Interp.deliver bi ~from:(Host.From_machine "A") v)
          | _ -> ()) }
  in
  let a = Interp.create ~program:p ~machine:"A" host_a in
  let bi = Interp.create ~program:p ~machine:"B" Host.null_host in
  b := Some bi;
  Interp.start a;
  Interp.start bi;
  ignore (Interp.deliver a ~from:Host.From_harvester (Value.Num 1.));
  match Interp.var bi "got" with
  | Some (Value.Num n) -> Alcotest.(check (float 0.)) "B received" 7. n
  | _ -> Alcotest.fail "got unbound"

(* property: analysis utility evaluation agrees with direct interpretation
   of the util body on random feasible points *)
let prop_utility_agrees_with_eval =
  QCheck2.Test.make ~name:"utility polynomials match direct evaluation"
    ~count:100
    QCheck2.Gen.(pair (float_range 1. 8.) (float_range 100. 400.))
    (fun (cpu, ram) ->
      let m = hh_machine () in
      let u = Option.get (List.hd m.states).sutil in
      match Analysis.utility u with
      | Error _ -> false
      | Ok [ branch ] ->
          let pcie = 3. in
          let res = [| cpu; ram; 4.; pcie |] in
          if not (Analysis.branch_feasible branch res) then
            QCheck2.assume_fail ()
          else
            (* List. 2's utility is min(res.vCPU, res.PCIe) *)
            let expected = Float.min cpu pcie in
            Float.abs (Analysis.eval_utility branch res -. expected) < 1e-9
      | Ok _ -> false)

(* ------------------------------------------------------------------ *)
(* XML interchange (§V-A d)                                            *)
(* ------------------------------------------------------------------ *)

let test_xml_escaping_roundtrip () =
  let doc =
    Xml.element "root"
      ~attrs:[ ("msg", {|a<b & "c" 'd'|}) ]
      [ Xml.element "child" [ Xml.text "x < y && z" ] ]
  in
  (* compact form: pretty-printing pads text nodes, so exact text
     round-trips use indent:false *)
  let s = Xml.to_string ~indent:false doc in
  let back = Xml.parse s in
  Alcotest.(check string) "attr survives" {|a<b & "c" 'd'|}
    (Xml.attr_exn back "msg");
  match Xml.first back "child" with
  | Some c -> Alcotest.(check string) "text survives" "x < y && z"
      (Xml.text_content c)
  | None -> Alcotest.fail "child lost"

let test_xml_parser_features () =
  let doc =
    Xml.parse
      {|<?xml version="1.0"?>
<!-- a comment -->
<a x="1"><b/><!-- inner --><c>t</c></a>|}
  in
  Alcotest.(check string) "name" "a" (Xml.name doc);
  Alcotest.(check (option string)) "attr" (Some "1") (Xml.attr doc "x");
  Alcotest.(check int) "two children" 2
    (List.length
       (List.filter
          (function Xml.Element _ -> true | Xml.Text _ -> false)
          (Xml.children doc)));
  (* a comment inside an element ends the text run before it and takes
     none of the blanks after it *)
  List.iter
    (fun (doc, kids) ->
      Alcotest.(check bool) doc true (Xml.children (Xml.parse doc) = kids))
    [ ("<a><!--c--> x</a>", [ Xml.Text " x" ]);
      ("<a>x <!--c--> y</a>", [ Xml.Text "x "; Xml.Text " y" ]) ]

let test_xml_parse_errors () =
  List.iter
    (fun bad ->
      match Xml.parse bad with
      | _ -> Alcotest.failf "expected parse error for %S" bad
      | exception Xml.Parse_error _ -> ())
    [ "<a>"; "<a></b>"; "<a x=1/>"; "no xml here"; "<a><b></a></b>" ]

(* The parser compares markup in place, so its end-of-input tests carry
   the bounds: a tag, a comment or a [/>] that ends on the last byte
   parses, and every truncation of a document is a [Parse_error], never
   an out-of-bounds access. *)
let test_xml_end_of_input () =
  List.iter
    (fun (doc, name, kids) ->
      match Xml.parse doc with
      | t ->
          Alcotest.(check string) (doc ^ " root") name (Xml.name t);
          Alcotest.(check int) (doc ^ " children") kids
            (List.length (Xml.children t))
      | exception Xml.Parse_error m -> Alcotest.failf "%S: %s" doc m)
    [ ("<a/>", "a", 0); ("<a></a>", "a", 0); ("<a x=\"1\"/>", "a", 0);
      ("<!--c--><a/>", "a", 0); ("<?p?><a/>", "a", 0);
      ("<a><!--c--></a>", "a", 0); ("<a><b/></a>", "a", 1);
      ("<a>t</a>", "a", 1) ];
  let doc = {|<?xml v?><!-- c --><a x="1"><b/><!-- d --><c>t&amp;</c></a>|} in
  for n = 0 to String.length doc - 1 do
    match Xml.parse (String.sub doc 0 n) with
    | _ -> Alcotest.failf "expected parse error for %S" (String.sub doc 0 n)
    | exception Xml.Parse_error _ -> ()
  done;
  List.iter
    (fun bad ->
      match Xml.parse bad with
      | _ -> Alcotest.failf "expected parse error for %S" bad
      | exception Xml.Parse_error _ -> ())
    [ "<!--c-->"; "<!--c--"; "<a><!--c-->"; "<a/"; "<?p?>" ]

(* Generated documents through the reader.  A document is drawn with its
   layout: text runs holding entity characters, blank runs, comments and
   single- or double-quoted attributes.  What the reader must return is
   the tree with the comments dropped, each run of adjacent text and
   blank pieces merged (less the XML blanks that open it after a
   comment), and merged runs that are blank dropped.  Without
   its comments, whose texts would merge when written, the tree must also
   survive [Xml.to_string ~indent:false]. *)
type xml_piece =
  | Child of string * (string * string) list * xml_piece list
  | Piece_text of string
  | Piece_blank of string
  | Piece_comment of string

let xml_doc_gen =
  let open QCheck2.Gen in
  let name =
    let* first = oneofl [ "a"; "b"; "seed"; "Var"; "x_1" ] in
    let+ rest = oneofl [ ""; "-2"; ".k"; ":ns" ] in
    first ^ rest
  in
  let text =
    string_size
      ~gen:(oneofl [ 'a'; 'z'; '0'; ' '; '\n'; '<'; '>'; '&'; '"'; '\'' ])
      (int_range 1 12)
  in
  let blank =
    string_size ~gen:(oneofl [ ' '; '\t'; '\n'; '\r'; '\012' ]) (int_range 1 4)
  in
  let comment =
    map (fun s -> String.concat "" (String.split_on_char '-' s)) text
  in
  let attrs = list_size (int_bound 3) (pair name text) in
  sized_size (int_bound 4)
  @@ fix (fun self depth ->
         let leaf =
           oneof
             [ map (fun t -> Piece_text t) text;
               map (fun b -> Piece_blank b) blank;
               map (fun c -> Piece_comment c) comment ]
         in
         let* n = name and* a = attrs in
         let+ kids =
           list_size (int_bound 5)
             (if depth = 0 then leaf
              else frequency [ (2, leaf); (1, self (depth - 1)) ])
         in
         Child (n, a, kids))

(* [single]: single quotes and blanks around [=] for this element's
   attributes; the two styles alternate by depth *)
let rec xml_render buf single = function
  | Child (n, attrs, kids) ->
      let q = if single then '\'' else '"' and sp = if single then " " else "" in
      Buffer.add_char buf '<';
      Buffer.add_string buf n;
      List.iter
        (fun (k, v) ->
          Printf.bprintf buf " %s%s=%s%c" k sp sp q;
          Xml.add_escaped buf v;
          Buffer.add_char buf q)
        attrs;
      if kids = [] then Buffer.add_string buf "/>"
      else begin
        Buffer.add_char buf '>';
        List.iter (xml_render buf (not single)) kids;
        Printf.bprintf buf "</%s >" n
      end
  | Piece_text t -> Xml.add_escaped buf t
  | Piece_blank b -> Buffer.add_string buf b
  | Piece_comment c -> Printf.bprintf buf "<!--%s-->" c

let rec xml_expected = function
  | Child (n, attrs, kids) ->
      let flush (run, acc) =
        if String.trim run = "" then acc else Xml.Text run :: acc
      in
      let last =
        List.fold_left
          (fun ((run, acc) as st) -> function
            | Piece_text t | Piece_blank t -> (run ^ t, acc)
            | Piece_comment _ -> ("", flush st)
            | Child _ as k -> ("", xml_expected k :: flush st))
          ("", []) kids
      in
      Xml.Element (n, attrs, List.rev (flush last))
  | Piece_text _ | Piece_blank _ | Piece_comment _ -> assert false

let rec xml_uncommented = function
  | Child (n, attrs, kids) ->
      Child
        ( n, attrs,
          List.filter_map
            (function
              | Piece_comment _ -> None | k -> Some (xml_uncommented k))
            kids )
  | piece -> piece

let prop_xml_roundtrip =
  QCheck2.Test.make ~name:"xml: parse of generated documents" ~count:500
    ~long_factor:25
    ~print:(fun d ->
      let buf = Buffer.create 64 in
      xml_render buf false d;
      Buffer.contents buf)
    xml_doc_gen
    (fun d ->
      let buf = Buffer.create 256 in
      Buffer.add_string buf "<?xml version=\"1.0\"?>\n<!-- head -->";
      xml_render buf false d;
      Buffer.add_string buf " \n";
      let t = xml_expected (xml_uncommented d) in
      Xml.parse (Buffer.contents buf) = xml_expected d
      && Xml.parse (Xml.to_string ~indent:false t) = t)

let test_machine_xml_roundtrip_hh () =
  let p = parse_hh () in
  let xml = Machine_xml.compile p in
  let back = Machine_xml.load xml in
  Alcotest.(check bool) "structural round-trip" true
    (Ast.strip_pos p = Ast.strip_pos back)

let test_machine_xml_roundtrip_catalog () =
  (* every Table I task survives compile -> XML -> load *)
  List.iter
    (fun (e : Farm_tasks.Task_common.entry) ->
      let p = Parser.program e.source in
      let back = Machine_xml.load (Machine_xml.compile p) in
      Alcotest.(check bool)
        (Printf.sprintf "%s survives XML" e.name)
        true
        (Ast.strip_pos p = Ast.strip_pos back))
    Farm_tasks.Catalog.all

let test_machine_xml_decode_errors () =
  (match Machine_xml.load "<almanac><machine/></almanac>" with
  | _ -> Alcotest.fail "expected decode error (machine without name)"
  | exception Invalid_argument _ | (exception Machine_xml.Decode_error _) ->
      ());
  match Machine_xml.load "<notalmanac/>" with
  | _ -> Alcotest.fail "expected decode error"
  | exception Machine_xml.Decode_error _ -> ()

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

(* ------------------------------------------------------------------ *)
(* Differential: Interp vs Compiled over the full task catalog         *)
(*                                                                     *)
(* Every machine of every catalog task runs under both engines with    *)
(* identical scripted trigger firings, message deliveries, reallocs    *)
(* and one mid-sequence snapshot/restore migration.  After every step  *)
(* the engines must agree on the current state, every variable value,  *)
(* the transition count, and the full effect log (sends, transits,     *)
(* trigger reassignments, host logs).                                  *)
(* ------------------------------------------------------------------ *)

module Flow = Farm_net.Flow

let diff_ip s = Farm_net.Ipaddr.of_string s

let diff_packet round =
  let tuple =
    { Flow.src = diff_ip (Printf.sprintf "10.0.%d.%d" (round mod 4) ((round mod 7) + 1));
      dst = diff_ip "10.1.0.1";
      sport = 1000 + (round * 13);
      dport = (match round mod 3 with 0 -> 22 | 1 -> 53 | _ -> 80);
      proto = (if round mod 5 = 4 then Flow.Udp else Flow.Tcp) }
  in
  let flags =
    match round mod 3 with
    | 0 -> Flow.syn_only
    | 1 -> Flow.syn_ack
    | _ -> Flow.no_flags
  in
  Flow.packet ~flags ~payload:"q0.attack.example.com" tuple (200 + (100 * round))

(* Values that cross typical catalog thresholds as rounds advance (round
   0 stays at zero so the "nothing happening" paths run too). *)
let diff_trigger_value (tt : Ast.trigger_type) ~round =
  match tt with
  | Ast.Poll ->
      Value.Stats
        (Array.init 16 (fun i ->
             if round = 0 then 0.
             else float_of_int ((round * round * 300) + (i * 157))))
  | Ast.Probe -> Value.Packet (diff_packet round)
  | Ast.Time -> Value.Num (float_of_int round *. 0.5)

let diff_recv_value (ty : Ast.typ) ~round =
  match ty with
  | Ast.Tint | Ast.Tlong | Ast.Tfloat ->
      Value.Num (float_of_int (500 + (round * 250)))
  | Ast.Tbool -> Value.Bool (round mod 2 = 0)
  | Ast.Tstring -> Value.Str (Printf.sprintf "msg%d" round)
  | Ast.Tlist -> Value.List [ Value.Num (float_of_int round); Value.Num 2. ]
  | Ast.Tpacket -> Value.Packet (diff_packet round)
  | Ast.Taction -> Value.Action Farm_net.Tcam.Drop
  | Ast.Tfilter -> Value.FilterV (Filter.atom Filter.Any)
  | Ast.Tstats ->
      Value.Stats (Array.init 8 (fun i -> float_of_int ((round * 100) + i)))
  | Ast.Trule ->
      Value.Struct
        ("Rule",
         [ ("pattern", Value.FilterV (Filter.atom Filter.Any));
           ("act", Value.Action Farm_net.Tcam.Count) ])
  | Ast.Tresources | Ast.Tunit -> Value.Unit

(* (trigger name, type) and recv (type, source) stimuli of a machine *)
let diff_stimuli (m : Ast.machine) =
  let trigs = List.map (fun (td : Ast.trig_decl) -> (td.tname, td.ttyp)) m.mtrigs in
  let events =
    List.concat_map (fun (st : Ast.state_decl) -> st.sevents) m.states
    @ m.mevents
  in
  let seen = Hashtbl.create 8 in
  let recvs =
    List.filter_map
      (fun (ev : Ast.event) ->
        match ev.trigger with
        | Ast.On_recv (ty, _, dest) ->
            let from =
              match dest with
              | Ast.Harvester -> Host.From_harvester
              | Ast.Machine (name, _) -> Host.From_machine name
            in
            let key = (Ast.typ_to_string ty, from) in
            if Hashtbl.mem seen key then None
            else begin
              Hashtbl.replace seen key ();
              Some (ty, from)
            end
        | _ -> None)
      events
  in
  (trigs, recvs)

type diff_driver = {
  dd_plan : Engine.plan;  (* migrations re-instantiate it *)
  dd_host : Host.host;
  dd_externals : (string * Value.t) list;
  mutable dd_inst : Engine.instance;
  dd_log : string list ref;
  dd_transitions : int ref;
}

let diff_target_str = function
  | Host.To_harvester -> "harvester"
  | Host.To_machine (m, None) -> m
  | Host.To_machine (m, Some d) -> Printf.sprintf "%s@%d" m d

let diff_driver ~plan ~externals
    ~(builtins : (string * (Value.t list -> Value.t)) list) =
  let log = ref [] in
  let transitions = ref 0 in
  let now_count = ref 0 in
  (* [tick x], an effectful host builtin for generated programs: logs its
     argument and returns it plus the instance's call count *)
  let ticks = ref 0 in
  let tick args =
    match args with
    | [ v ] ->
        let x = Value.as_num v in
        incr ticks;
        log := Printf.sprintf "tick:%h" x :: !log;
        Value.Num (x +. float_of_int !ticks)
    | _ -> Host.fail "tick expects 1 argument"
  in
  (* a packed list ([Value.Nums]) must not reach the host: the
     interpreter never makes one, so a leak shows as a differing effect *)
  let packed v = if Value.plain v != v then "PACKED " else "" in
  let checked name f args =
    List.iter (fun v -> if packed v <> "" then log := ("PACKED arg of " ^ name) :: !log) args;
    f args
  in
  let host =
    { Host.h_now =
        (fun () ->
          incr now_count;
          float_of_int !now_count *. 0.125);
      h_resources = (fun () -> [| 2.; 200.; 10.; 5. |]);
      h_send =
        (fun target v ->
          log :=
            Printf.sprintf "send:%s:%s%s" (diff_target_str target) (packed v)
              (Value.to_string v)
            :: !log);
      h_set_trigger =
        (fun name _tt v ->
          log := Printf.sprintf "settrig:%s:%s%s" name (packed v) (Value.to_string v)
                 :: !log);
      h_builtin =
        (fun name ->
          match List.assoc_opt name builtins with
          | Some f -> Some (checked name f)
          | None -> if name = "tick" then Some (checked name tick) else None);
      h_on_transit =
        (fun a b ->
          incr transitions;
          log := Printf.sprintf "transit:%s->%s" a b :: !log);
      h_log = (fun m -> log := ("log:" ^ m) :: !log);
      h_trace = (fun _ _ -> ()) }
  in
  { dd_plan = plan; dd_host = host; dd_externals = externals;
    dd_inst = Engine.instantiate ~externals plan host;
    dd_log = log; dd_transitions = transitions }

type diff_step =
  | D_start
  | D_fire of string * Value.t
  | D_deliver of Host.source * Value.t
  | D_realloc
  | D_migrate

let diff_step_str = function
  | D_start -> "start"
  | D_fire (name, _) -> "fire " ^ name
  | D_deliver (Host.From_harvester, _) -> "deliver from harvester"
  | D_deliver (Host.From_machine m, _) -> "deliver from " ^ m
  | D_realloc -> "realloc"
  | D_migrate -> "migrate"

(* Apply one step; runtime/type errors become part of the observable
   outcome (both engines must fail identically). *)
let diff_apply d step =
  try
    match step with
    | D_start ->
        Engine.start d.dd_inst;
        Ok "()"
    | D_fire (name, v) ->
        Engine.prepare_trigger d.dd_inst name v;
        Ok "()"
    | D_deliver (from, v) ->
        Ok (string_of_bool (Engine.deliver d.dd_inst ~from v))
    | D_realloc ->
        Engine.realloc d.dd_inst;
        Ok "()"
    | D_migrate ->
        let vars, state = Engine.snapshot d.dd_inst in
        let fresh =
          Engine.instantiate ~externals:d.dd_externals d.dd_plan d.dd_host
        in
        Engine.restore fresh ~vars ~state;
        d.dd_inst <- fresh;
        Ok "migrated"
  with
  | Host.Runtime_error m -> Error ("runtime error: " ^ m)
  | Value.Type_error m -> Error ("type error: " ^ m)

let diff_observe d =
  let vars, state = Engine.snapshot d.dd_inst in
  let vars =
    List.sort compare
      (List.map (fun (k, v) -> k ^ " = " ^ Value.to_string v) vars)
  in
  (state, vars, !(d.dd_transitions), List.rev !(d.dd_log))

let diff_check_step ~what di dc step =
  let ri = diff_apply di step in
  let rc = diff_apply dc step in
  let ctx = Printf.sprintf "%s: %s" what (diff_step_str step) in
  Alcotest.(check (result string string)) (ctx ^ ": outcome") ri rc;
  let si, vi, ti, li = diff_observe di in
  let sc, vc, tc, lc = diff_observe dc in
  Alcotest.(check string) (ctx ^ ": state") si sc;
  Alcotest.(check (list string)) (ctx ^ ": variables") vi vc;
  Alcotest.(check int) (ctx ^ ": transitions") ti tc;
  Alcotest.(check (list string)) (ctx ^ ": effects") li lc;
  ri

let diff_run_machine ~what ~program ~machine ~externals ~builtins =
  let m =
    List.find (fun (m : Ast.machine) -> m.mname = machine) program.Ast.machines
  in
  let trigs, recvs = diff_stimuli m in
  let driver engine =
    diff_driver ~plan:(Engine.prepare ~engine ~program ~machine) ~externals
      ~builtins
  in
  let di = driver `Interp and dc = driver `Compiled in
  Alcotest.(check string)
    (what ^ ": initial state")
    (Engine.current_state di.dd_inst)
    (Engine.current_state dc.dd_inst);
  let steps =
    D_start
    :: List.concat
         (List.init 5 (fun round ->
              List.map
                (fun (name, tt) ->
                  D_fire (name, diff_trigger_value tt ~round))
                trigs
              @ List.map
                  (fun (ty, from) ->
                    D_deliver (from, diff_recv_value ty ~round))
                  recvs
              @ (if round = 2 then [ D_realloc ] else [])
              @ if round = 3 then [ D_migrate ] else []))
  in
  (* stop at the first (identical) error: past it the reference
     interpreter's own state is unspecified *)
  let ok_steps = ref 0 in
  ignore
    (List.fold_left
       (fun halted step ->
         if halted then true
         else
           match diff_check_step ~what di dc step with
           | Ok _ ->
               incr ok_steps;
               false
           | Error _ -> true)
       false steps);
  !ok_steps

let test_differential_catalog () =
  let total_ok = ref 0 in
  List.iter
    (fun (entry : Farm_tasks.Task_common.entry) ->
      let program =
        Typecheck.check ~extra:entry.extra_sigs (Parser.program entry.source)
      in
      List.iter
        (fun (m : Ast.machine) ->
          let externals =
            Option.value ~default:[]
              (List.assoc_opt m.mname entry.externals)
          in
          total_ok :=
            !total_ok
            + diff_run_machine
                ~what:(Printf.sprintf "%s/%s" entry.name m.mname)
                ~program ~machine:m.mname ~externals ~builtins:entry.builtins)
        program.machines)
    Farm_tasks.Catalog.all;
  (* the sequences must actually run, not halt on an early error *)
  if !total_ok < 100 then
    Alcotest.failf "differential catalog only completed %d ok steps" !total_ok

(* host builtins of the HH fixture (listing 2) *)
let hh_diff_builtins =
  [ ("getHH",
     fun args ->
       match args with
       | [ Value.Stats stats; Value.Num threshold ] ->
           let hitters = ref [] in
           Array.iteri
             (fun i v ->
               if v > threshold then
                 hitters := Value.Num (float_of_int i) :: !hitters)
             stats;
           Value.List (List.rev !hitters)
       | _ -> Alcotest.fail "getHH misuse");
    ("setHitterRules", fun _ -> Value.Unit) ]

(* The HH machine exercises host builtins (getHH / setHitterRules) that
   the catalog doesn't; run it differentially too. *)
let test_differential_hh () =
  let ok =
    diff_run_machine ~what:"listing2/HH" ~program:(check_hh ()) ~machine:"HH"
      ~externals:[ ("threshold", Value.Num 700.) ]
      ~builtins:hh_diff_builtins
  in
  if ok < 5 then Alcotest.failf "HH differential only completed %d ok steps" ok

(* Randomized interleavings over the same catalog: rather than the fixed
   round-robin schedule above, fire/deliver/realloc/migrate in a random
   order drawn from a printable seed, so engine-divergence bugs that only
   show up under a particular ordering (e.g. migrate directly after an
   unconsumed message) are hunted too. *)

let diff_cases =
  lazy
    (List.concat_map
       (fun (entry : Farm_tasks.Task_common.entry) ->
         let program =
           Typecheck.check ~extra:entry.extra_sigs (Parser.program entry.source)
         in
         List.map
           (fun (m : Ast.machine) ->
             let externals =
               Option.value ~default:[]
                 (List.assoc_opt m.mname entry.externals)
             in
             ( Printf.sprintf "%s/%s" entry.name m.mname,
               program, m, externals, entry.builtins ))
           program.machines)
       Farm_tasks.Catalog.all)

(* Fail unless the two drivers agree on state, variables, transition
   count and effect log; [names] label them in the report. *)
let diff_prop_agree ?(names = ("interp", "compiled")) ctx di dc =
  let na, nb = names in
  let si, vi, ti, li = diff_observe di in
  let sc, vc, tc, lc = diff_observe dc in
  if si <> sc then
    QCheck2.Test.fail_reportf "%s: states differ (%s vs %s)" ctx si sc;
  if vi <> vc then
    QCheck2.Test.fail_reportf "%s: variables differ\n  %s: %s\n  %s: %s" ctx
      na (String.concat "; " vi) nb (String.concat "; " vc);
  if ti <> tc then
    QCheck2.Test.fail_reportf "%s: transition counts differ (%d vs %d)" ctx ti
      tc;
  if li <> lc then
    QCheck2.Test.fail_reportf "%s: effect logs differ\n  %s: %s\n  %s: %s"
      ctx na (String.concat " | " li) nb (String.concat " | " lc)

let diff_prop_step ?(names = ("interp", "compiled")) what di dc step =
  let ri = diff_apply di step in
  let rc = diff_apply dc step in
  let ctx = Printf.sprintf "%s: %s" what (diff_step_str step) in
  if ri <> rc then
    QCheck2.Test.fail_reportf "%s: outcomes differ (%s %s, %s %s)" ctx
      (fst names)
      (match ri with Ok s -> "ok " ^ s | Error e -> e)
      (snd names)
      (match rc with Ok s -> "ok " ^ s | Error e -> e);
  diff_prop_agree ~names ctx di dc;
  ri

(* A generator of random steps over machine [m]'s stimuli: fire a
   trigger, deliver a message, realloc or migrate (snapshot, then
   restore on a fresh instance). *)
let diff_random_step (m : Ast.machine) rng =
  let trigs, recvs = diff_stimuli m in
  let trig_arr = Array.of_list trigs and recv_arr = Array.of_list recvs in
  let kinds =
    Array.of_list
      (List.concat
         [ (if Array.length trig_arr > 0 then [ `Fire; `Fire; `Fire ] else []);
           (if Array.length recv_arr > 0 then [ `Deliver; `Deliver ] else []);
           [ `Realloc; `Migrate ] ])
  in
  fun () ->
    let round = Farm_sim.Rng.int rng 7 in
    match kinds.(Farm_sim.Rng.int rng (Array.length kinds)) with
    | `Fire ->
        let name, tt =
          trig_arr.(Farm_sim.Rng.int rng (Array.length trig_arr))
        in
        D_fire (name, diff_trigger_value tt ~round)
    | `Deliver ->
        let ty, from =
          recv_arr.(Farm_sim.Rng.int rng (Array.length recv_arr))
        in
        D_deliver (from, diff_recv_value ty ~round)
    | `Realloc -> D_realloc
    | `Migrate -> D_migrate

let prop_differential_random =
  QCheck2.Test.make ~name:"interp vs compiled agree on random interleavings"
    ~count:120
    ~print:(fun (idx, seed, len) ->
      Printf.sprintf "case=%d seed=%d len=%d" idx seed len)
    QCheck2.Gen.(
      triple (int_bound 1_000) (int_bound 1_000_000) (int_range 8 30))
    (fun (idx, seed, len) ->
      let cases = Lazy.force diff_cases in
      let what, program, (m : Ast.machine), externals, builtins =
        List.nth cases (idx mod List.length cases)
      in
      let random_step =
        diff_random_step m (Farm_sim.Rng.create (0xd1ff + seed))
      in
      let steps = ref [] in
      for _ = 1 to len do
        steps := random_step () :: !steps
      done;
      let steps = D_start :: List.rev !steps in
      let driver engine =
        diff_driver
          ~plan:(Engine.prepare ~engine ~program ~machine:m.mname)
          ~externals ~builtins
      in
      let di = driver `Interp and dc = driver `Compiled in
      if Engine.current_state di.dd_inst <> Engine.current_state dc.dd_inst
      then QCheck2.Test.fail_reportf "%s: initial state differs" what;
      (* stop at the first (identical) error, as in the scripted run *)
      let rec go = function
        | [] -> true
        | step :: rest -> (
            match diff_prop_step what di dc step with
            | Ok _ -> go rest
            | Error _ -> true)
      in
      go steps)

(* One compiled plan serves every seed of a task machine, so nothing a
   run does may leak into the plan.  K instances of one [Engine.prepare]d
   plan, driven by an interleaved random schedule (each step acts on one
   instance; migrations re-instantiate the plan), must match K instances
   that each compiled the machine themselves, every instance compared
   after every step.  Both sides run the same compiled code, so they must
   agree even past a runtime error: the run does not stop there. *)
let shared_plan_cases =
  lazy
    (Lazy.force diff_cases
    @
    let program = check_hh () in
    [ ( "listing2/HH", program,
        List.find (fun (m : Ast.machine) -> m.mname = "HH") program.machines,
        [ ("threshold", Value.Num 700.) ],
        hh_diff_builtins ) ])

let shared_plan_run ~k ~seed ~len
    (what, program, (m : Ast.machine), externals, builtins) =
  let prepare () = Engine.prepare ~engine:`Compiled ~program ~machine:m.mname in
  let driver plan = diff_driver ~plan ~externals ~builtins in
  let plan = prepare () in
  let shared = Array.init k (fun _ -> driver plan) in
  let separate = Array.init k (fun _ -> driver (prepare ())) in
  let rng = Farm_sim.Rng.create (0x5a4ed + seed) in
  let random_step = diff_random_step m rng in
  let schedule =
    List.init k (fun i -> (i, D_start))
    @ List.init len (fun _ ->
          let i = Farm_sim.Rng.int rng k in
          (i, random_step ()))
  in
  let names = ("separate", "shared") in
  List.iter
    (fun (i, step) ->
      ignore
        (diff_prop_step ~names
           (Printf.sprintf "%s #%d" what i)
           separate.(i) shared.(i) step);
      Array.iteri
        (fun j dj ->
          diff_prop_agree ~names
            (Printf.sprintf "%s #%d after a step of #%d" what j i)
            dj shared.(j))
        separate)
    schedule

let prop_shared_plan_no_interference =
  QCheck2.Test.make
    ~name:"instances of one shared plan = separately compiled instances"
    ~count:10
    ~print:(fun (k, seed, len) ->
      Printf.sprintf "k=%d seed=%d len=%d" k seed len)
    QCheck2.Gen.(
      triple (int_range 2 4) (int_bound 1_000_000) (int_range 8 40))
    (fun (k, seed, len) ->
      (* every catalog and fixture machine, each under its own schedule *)
      List.iteri
        (fun i case -> shared_plan_run ~k ~seed:(seed + i) ~len case)
        (Lazy.force shared_plan_cases);
      true)

(* ------------------------------------------------------------------ *)
(* Differential over generated programs                                *)
(*                                                                     *)
(* [Almanac_gen.program] draws well-typed machines that exercise what  *)
(* the catalog never does: the same name at several scope levels with  *)
(* different types, declarations on some paths only, effects in both   *)
(* operands of a binop, untyped [nth] results in typed variables.      *)
(* Each draw runs under both engines on a random schedule; besides the *)
(* usual observations, variables are compared exactly (floats in hex). *)
(* QCHECK_LONG runs 25x more draws.                                    *)
(* ------------------------------------------------------------------ *)

let rec exact_value (v : Value.t) =
  match v with
  | Value.Num f -> Printf.sprintf "%h" f
  | Value.List l -> "[" ^ String.concat ", " (List.map exact_value l) ^ "]"
  | v -> Value.to_string v

(* a packed list in a snapshot shows as a difference with the
   interpreter's *)
let exact_vars d =
  let vars, _ = Engine.snapshot d.dd_inst in
  List.sort compare
    (List.map
       (fun (k, v) ->
         k ^ (if Value.plain v != v then " = PACKED " else " = ") ^ exact_value v)
       vars)

let gen_typecheck p =
  match Typecheck.check ~extra:Almanac_gen.extra_sigs p with
  | p -> p
  | exception Typecheck.Error m ->
      QCheck2.Test.fail_reportf "generator drew an ill-typed program: %s" m

(* One program under a random schedule drawn from [seed]; stops at the
   first (identical) error, as the catalog properties do. *)
let gen_run ~what ~externals ~seed ~len (program : Ast.program) =
  let m = List.hd program.Ast.machines in
  let random_step = diff_random_step m (Farm_sim.Rng.create (0x6e4 + seed)) in
  let steps = ref [] in
  for _ = 1 to len do
    steps := random_step () :: !steps
  done;
  let driver engine =
    diff_driver
      ~plan:(Engine.prepare ~engine ~program ~machine:m.mname)
      ~externals ~builtins:[]
  in
  let di = driver `Interp and dc = driver `Compiled in
  let rec go = function
    | [] -> true
    | step :: rest -> (
        let r = diff_prop_step what di dc step in
        let xi = exact_vars di and xc = exact_vars dc in
        if xi <> xc then
          QCheck2.Test.fail_reportf "%s: %s: exact variables differ\n  interp: %s\n  compiled: %s"
            what (diff_step_str step) (String.concat "; " xi) (String.concat "; " xc);
        match r with Ok _ -> go rest | Error _ -> true)
  in
  go (D_start :: List.rev !steps)

let prop_generated_differential =
  QCheck2.Test.make ~name:"generated programs: interp vs compiled agree"
    ~count:150 ~long_factor:25
    ~print:(fun ((p, _), seed, len) ->
      Printf.sprintf "seed=%d len=%d\n%s" seed len (Pretty.program_to_string p))
    QCheck2.Gen.(triple Almanac_gen.program (int_bound 1_000_000) (int_range 4 16))
    (fun ((p, externals), seed, len) ->
      gen_run ~what:"generated" ~externals ~seed ~len (gen_typecheck p))

(* The symbolic verifier on the same draws: translation validation of
   every machine raises nothing and finds no divergence (V401). *)
let equiv_diags ~what (program : Ast.program) =
  let ds =
    try
      Equiv.verify_program
        ~host_builtins:("tick" :: Builtins.soil_effects) ~program ()
    with e -> Alcotest.failf "%s: Equiv raised %s" what (Printexc.to_string e)
  in
  match List.filter (fun (d : Diagnostic.t) -> d.code = "V401") ds with
  | [] -> ()
  | bad ->
      Alcotest.failf "%s: V401\n%s" what
        (String.concat "\n" (List.map Diagnostic.to_string bad))

let print_draw (p, _) = Pretty.program_to_string p

let prop_generated_equiv =
  QCheck2.Test.make ~name:"generated programs: Equiv raises nothing, no V401"
    ~count:150 ~long_factor:25 ~print:print_draw Almanac_gen.program
    (fun (p, _) ->
      equiv_diags ~what:"generated" (gen_typecheck p);
      true)

(* Printing a draw and reading it back gives the same program. *)
let prop_generated_roundtrip =
  QCheck2.Test.make ~name:"generated programs: Pretty/Parser round-trip"
    ~count:150 ~long_factor:25 ~print:print_draw Almanac_gen.program
    (fun (p, _) ->
      let p = gen_typecheck p in
      let p' =
        Typecheck.check ~extra:Almanac_gen.extra_sigs
          (Parser.program (Pretty.program_to_string p))
      in
      Ast.strip_pos p = Ast.strip_pos p')

(* The deploy path ships a task as XML ([Seeder.deploy] loads
   [Machine_xml.compile] of the checked program): every draw comes back
   unchanged, not only the catalog. *)
let prop_generated_machine_xml =
  QCheck2.Test.make ~name:"generated programs: Machine_xml round-trip"
    ~count:150 ~long_factor:25 ~print:print_draw Almanac_gen.program
    (fun (p, _) ->
      let p = gen_typecheck p in
      Ast.strip_pos (Machine_xml.load (Machine_xml.compile p)) = Ast.strip_pos p)

(* Reach is sound on generated machines: when its analysis is complete,
   every state an interpreter run passes through or rests in under
   random fires, deliveries and reallocs is in [reachable].  The run
   stops at the first runtime error, and a step that fails adds none of
   its states.  Incomplete analyses claim nothing and pass. *)
let prop_generated_reach_sound =
  QCheck2.Test.make ~name:"generated programs: Reach covers every visited state"
    ~count:150 ~long_factor:25
    ~print:(fun ((p, _), seed) ->
      Printf.sprintf "seed=%d\n%s" seed (Pretty.program_to_string p))
    QCheck2.Gen.(pair Almanac_gen.program (int_bound 1_000_000))
    (fun ((p, externals), seed) ->
      let program = gen_typecheck p in
      let m = List.hd program.Ast.machines in
      let r =
        Reach.analyze ~host_builtins:("tick" :: Builtins.soil_effects)
          ~funcs:program.funcs ~machine:m ()
      in
      (not r.complete)
      ||
      let d =
        diff_driver
          ~plan:(Engine.prepare ~engine:`Interp ~program ~machine:m.mname)
          ~externals ~builtins:[]
      in
      let random_step = diff_random_step m (Farm_sim.Rng.create (0x4ea + seed)) in
      let visited = ref [] in
      let rec go step n =
        d.dd_log := [];
        match diff_apply d step with
        | Error _ -> ()
        | Ok _ -> (
            visited := Engine.current_state d.dd_inst :: !visited;
            List.iter
              (fun e ->
                match String.index_opt e '>' with
                | Some i when String.starts_with ~prefix:"transit:" e ->
                    visited := String.sub e (i + 1) (String.length e - i - 1) :: !visited
                | _ -> ())
              !(d.dd_log);
            if n > 0 then
              match random_step () with
              | D_migrate -> go D_realloc (n - 1)
              | step -> go step (n - 1))
      in
      go D_start 24;
      match List.filter (fun s -> not (List.mem s r.reachable)) !visited with
      | [] -> true
      | missed ->
          QCheck2.Test.fail_reportf "visited %s, not in reachable [%s]"
            (String.concat ", " (List.sort_uniq compare missed))
            (String.concat "; " r.reachable))

(* Shrunk findings of the properties above, kept as regression programs:
   each runs the scripted catalog schedule and five random ones under
   both engines, and verifies without a V401. *)
let corpus_dir = "almanac_corpus"

let test_generated_corpus () =
  let files =
    Sys.readdir corpus_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".alm")
    |> List.sort compare
  in
  if files = [] then Alcotest.fail "empty regression corpus";
  List.iter
    (fun f ->
      let src = In_channel.with_open_bin (Filename.concat corpus_dir f) In_channel.input_all in
      let program =
        Typecheck.check ~extra:Almanac_gen.extra_sigs (Parser.program src)
      in
      let externals = [ ("th", Value.Num 2.5) ] in
      List.iter
        (fun (m : Ast.machine) ->
          ignore
            (diff_run_machine ~what:f ~program ~machine:m.mname ~externals
               ~builtins:[]))
        program.machines;
      for seed = 1 to 5 do
        ignore (gen_run ~what:f ~externals ~seed ~len:16 program)
      done;
      equiv_diags ~what:f program)
    files

(* A host builtin named like a pure built-in or an Almanac function
   takes precedence in both engines, at every call convention the
   compiled engine has (numeric, list-free, function frame, and the
   fused [stats_size(bound)] and [stat(bound, typed local)]), even when
   it returns a value of another kind than the name's signature. *)
let override_source =
  {|
float f(float a) {
  return a * 2;
}

machine Override {
  place all;
  poll pollStats = Poll { .ival = 0.001, .what = port ANY };
  list l = [1, 2, 3];
  float a = 0;
  float b = 0;
  float c = 0;
  list d = [];
  float e = 0;
  bool g = false;
  float h = 0;
  float k = 0;
  state s0 {
    when (pollStats as st) do {
      long i = 1;
      a = size(l) + 1;
      b = min(stat(st, 1), 5);
      c = f(now());
      d = append(l, floor(2.5));
      e = nth(l, 1);
      g = is_list_empty(l);
      h = stats_size(st);
      k = stat(st, i);
    }
  }
}
|}

(* No state of a compiled instance holds a list that a [size] / [nth]
   scan read, so the list is collected once the machine drops it. *)
let test_list_caches_release () =
  let program =
    Typecheck.check
      (Parser.program
         {|
machine Scan {
  place all;
  time clock = Time { .ival = 1 };
  list l = [1, 2, 3];
  float t = 0;
  state s0 {
    when (clock) do {
      long i = 0;
      while (i < size(l)) {
        t = t + nth(l, i);
        i = i + 1;
      }
      l = [4, 5];
    }
  }
}
|})
  in
  let inst = Exec.create ~program ~machine:"Scan" Host.null_host in
  Exec.start inst;
  let weak = Weak.create 1 in
  (Sys.opaque_identity (fun () ->
       match Exec.var inst "l" with
       | Some (Value.List l) -> Weak.set weak 0 (Some l)
       | _ -> Alcotest.fail "l is not a list"))
    ();
  Exec.prepare_trigger inst "clock" Value.Unit;
  Alcotest.(check (option string)) "the scan ran" (Some "6")
    (Option.map Value.to_string (Exec.var inst "t"));
  Gc.full_major ();
  Alcotest.(check bool) "the scanned list is collected" true
    (Option.is_none (Weak.get weak 0));
  (* ... while the instance is still alive *)
  Alcotest.(check string) "instance alive" "s0" (Exec.current_state inst)

(* A packed list ([Value.Nums], which the compiled engine builds from
   appended numbers) is the [Value.List] of its [Num]s to every reader. *)
let test_packed_list_value () =
  let xs = [ 3.; 0.5; -0.; 1e300; 7.25 ] in
  let p = Value.Nums (Float.Array.of_list xs) in
  let l = Value.List (List.map (fun x -> Value.Num x) xs) in
  let check_eq what a b expect =
    Alcotest.(check bool) (what ^ " (a, b)") expect (Value.equal a b);
    Alcotest.(check bool) (what ^ " (b, a)") expect (Value.equal b a)
  in
  check_eq "= its List" p l true;
  check_eq "= itself" p p true;
  check_eq "<> a shorter list" p (Value.List [ Value.Num 3. ]) false;
  check_eq "<> a longer list" p (Value.List (Value.as_list l @ [ Value.Num 1. ])) false;
  check_eq "<> a list with another kind" p
    (Value.List (Value.Str "3" :: List.tl (Value.as_list l)))
    false;
  check_eq "empty = []" (Value.Nums (Float.Array.create 0)) (Value.List []) true;
  check_eq "nan as in a List" (Value.Nums (Float.Array.make 1 nan))
    (Value.List [ Value.Num nan ]) false;
  check_eq "-0 = 0 as in a List" (Value.Nums (Float.Array.make 1 (-0.)))
    (Value.List [ Value.Num 0. ]) true;
  Alcotest.(check string) "to_string" (Value.to_string l) (Value.to_string p);
  Alcotest.(check int) "list_length" 5 (Value.list_length p);
  Alcotest.(check bool) "plain is the List" true (Value.plain p = l);
  Alcotest.(check bool) "plain of a plain value is itself" true (Value.plain l == l);
  let nested = Value.Struct ("R", [ ("xs", Value.List [ p; Value.Num 1. ]) ]) in
  Alcotest.(check bool) "plain reaches into lists and structs" true
    (Value.plain nested = Value.Struct ("R", [ ("xs", Value.List [ l; Value.Num 1. ]) ]));
  let error f =
    match f () with
    | _ -> "no error"
    | exception Value.Type_error m -> m
    | exception Host.Runtime_error m -> m
  in
  Alcotest.(check string) "type errors name a list"
    (error (fun () -> Value.as_num l))
    (error (fun () -> Value.as_num p));
  (* [nth] past the end of a packed list, read in place by the compiled
     engine as a number and as a value, fails as the interpreter does *)
  let program =
    Typecheck.check
      (Parser.program
         (Farm_tasks.Task_common.stats_helpers
         ^ {|
machine Past {
  place all;
  poll p = Poll { .ival = 1, .what = port ANY };
  list xs = [];
  float x = 0;
  state s0 {
    when (p as stats) do {
      xs = stats_list(stats);
      x = nth(xs, 1);
      send nth(xs, 0) to harvester;
      x = nth(xs, size(xs));
    }
  }
}
|}))
  in
  let run create start fire =
    let inst = create ~program ~machine:"Past" Host.null_host in
    start inst;
    error (fun () -> fire inst "p" (Value.Stats [| 4.; 5. |]))
  in
  Alcotest.(check string) "nth past the end"
    (run (fun ~program ~machine h -> Interp.create ~program ~machine h) Interp.start
       Interp.prepare_trigger)
    (run (fun ~program ~machine h -> Exec.create ~program ~machine h) Exec.start
       Exec.prepare_trigger)

(* [stats_list] packs its list; the compiled engine hands the host a
   [Value.List] in [send], a host built-in's arguments and a trigger
   variable, and [Exec.var] / [snapshot] return one. *)
let test_packed_list_boundaries () =
  let program =
    Typecheck.check
      ~extra:[ ("inspect", { Typecheck.args = [ Typecheck.Ty Ast.Tlist ]; ret = Typecheck.Numeric }) ]
      (Parser.program
         (Farm_tasks.Task_common.stats_helpers
         ^ {|
machine Pack {
  place all;
  poll p = Poll { .ival = 1, .what = port ANY };
  list last = [];
  state s0 {
    when (p as stats) do {
      last = stats_list(stats);
      send last to harvester;
      long n = inspect(last);
      list again = stats_list(stats);
      if (again == last and size(again) == 3 and nth(again, 2) == 30) then {
        send 1 to harvester;
      }
    }
  }
}
|}))
  in
  let seen = ref [] in
  let is_list what = function
    | Value.List l when List.for_all (function Value.Num _ -> true | _ -> false) l ->
        seen := what :: !seen
    | v -> Alcotest.failf "%s got %s" what (Value.to_string v)
  in
  let host =
    { Host.null_host with
      h_send =
        (fun _ v ->
          match v with
          | Value.Num _ -> seen := "equal" :: !seen
          | v -> is_list "send" v);
      h_builtin =
        (function
        | "inspect" ->
            Some
              (fun args ->
                List.iter (is_list "host built-in") args;
                Value.Num 0.)
        | _ -> None) }
  in
  let inst = Exec.create ~program ~machine:"Pack" host in
  Exec.start inst;
  Exec.prepare_trigger inst "p" (Value.Stats [| 10.; 20.; 30. |]);
  Alcotest.(check (list string)) "host saw Lists" [ "equal"; "host built-in"; "send" ] !seen;
  (match Exec.var inst "last" with
  | Some v -> is_list "var" v
  | None -> Alcotest.fail "last unbound");
  List.iter (fun (_, v) -> if Value.plain v != v then Alcotest.fail "snapshot packed")
    (fst (Exec.snapshot inst))

let test_host_overrides () =
  let program = Typecheck.check (Parser.program override_source) in
  let ovr name f = (name, f) in
  let cases =
    [ ("none", []);
      ( "numbers",
        [ ovr "size" (fun _ -> Value.Num 40.); ovr "min" (fun _ -> Value.Num (-1.));
          ovr "f" (fun _ -> Value.Num 9.); ovr "now" (fun _ -> Value.Num 3.);
          ovr "stats_size" (fun _ -> Value.Num 7.); ovr "stat" (fun _ -> Value.Num 11.) ] );
      ( "other kinds",
        [ ovr "stat" (fun _ -> Value.Bool true); ovr "floor" (fun _ -> Value.Str "x");
          ovr "nth" (fun _ -> Value.List []); ovr "f" (fun _ -> Value.Bool false);
          ovr "is_list_empty" (fun _ -> Value.Num 1.);
          ovr "stats_size" (fun _ -> Value.Str "z") ] );
      ("failing", [ ovr "size" (fun _ -> Value.Str "s") ]) ]
  in
  List.iter
    (fun (what, builtins) ->
      ignore
        (diff_run_machine ~what:("override " ^ what) ~program ~machine:"Override"
           ~externals:[] ~builtins))
    cases

(* A [return] inside a loop ends the function at once, also when the
   returned expression calls the function again inside an argument; a
   bare [return;] ends a handler, with the loop around it unfinished. *)
let early_return_source =
  {|
long walk(long n) {
  long i = 0;
  while (i < 100) {
    if (i * i >= n) then {
      if (n <= 1) then { return i; }
      return i + walk(n - max(walk(floor(n / 4)), 1));
    }
    i = i + 1;
  }
  return -1;
}
machine Walk {
  place all;
  time clock = Time { .ival = 1 };
  list seen = [];
  long after = 0;
  long walked = 0;
  state s0 {
    when (clock) do {
      long k = 0;
      while (k < 6) {
        seen = append(seen, walk(k * 7));
        if (k == 4) then { return; }
        k = k + 1;
      }
      after = after + 1;
    }
    when (recv long n from harvester) do { walked = walk(n); }
  }
}
|}

let test_early_return () =
  let program = Typecheck.check (Parser.program early_return_source) in
  let run engine =
    let inst =
      Engine.instantiate (Engine.prepare ~engine ~program ~machine:"Walk")
        Host.null_host
    in
    Engine.start inst;
    Engine.prepare_trigger inst "clock" (Value.Num 0.);
    Engine.prepare_trigger inst "clock" (Value.Num 1.);
    let get v = Option.map Value.to_string (Engine.var inst v) in
    let walks =
      List.map
        (fun n ->
          ignore (Engine.deliver inst ~from:Host.From_harvester (Value.Num n));
          Option.fold ~none:"unbound" ~some:Value.to_string (Engine.var inst "walked"))
        [ 0.; 1.; 2.; 9.; 10.; 50. ]
    in
    (get "seen", get "after", walks)
  in
  let seen, after, walks = run `Interp in
  Alcotest.(check (option string)) "interp: the handler returned early"
    (Some "0") after;
  Alcotest.(check (option string)) "interp: two runs of five walks"
    (Some "[0, 16, 20, 22, 26, 0, 16, 20, 22, 26]") seen;
  let seen', after', walks' = run `Compiled in
  Alcotest.(check (option string)) "compiled: seen" seen seen';
  Alcotest.(check (option string)) "compiled: after" after after';
  Alcotest.(check (list string)) "interp: walk"
    [ "0"; "1"; "3"; "16"; "20"; "34" ] walks;
  Alcotest.(check (list string)) "compiled: walk" walks walks';
  ignore
    (diff_run_machine ~what:"early return" ~program ~machine:"Walk"
       ~externals:[] ~builtins:[])

(* Both engines evaluate binop operands left to right.  With a host whose
   now() counts its calls, [now() == now() - 1] compares 1 with 2 - 1. *)
let eq_order_source =
  {|
machine EqOrder {
  place all;
  time clock = Time { .ival = 1 };
  bool b = false;
  bool c = true;
  state s0 {
    when (clock) do {
      b = (now() == now() - 1);
      c = (now() <> now() - 1);
    }
  }
}
|}

let test_eq_operand_order () =
  let program = Typecheck.check (Parser.program eq_order_source) in
  List.iter
    (fun (engine, name) ->
      let calls = ref 0 in
      let host =
        { Host.null_host with
          h_now = (fun () -> incr calls; float_of_int !calls) }
      in
      let inst =
        Engine.instantiate (Engine.prepare ~engine ~program ~machine:"EqOrder") host
      in
      Engine.start inst;
      Engine.prepare_trigger inst "clock" (Value.Num 0.);
      let get v = Option.map Value.to_string (Engine.var inst v) in
      Alcotest.(check (option string)) (name ^ ": b") (Some "true") (get "b");
      Alcotest.(check (option string)) (name ^ ": c") (Some "false") (get "c");
      Alcotest.(check int) (name ^ ": now() calls") 4 !calls)
    [ (`Interp, "interp"); (`Compiled, "compiled") ]

let () =
  Alcotest.run "farm_almanac"
    [ ( "lexer",
        [ Alcotest.test_case "basic" `Quick test_lexer_basic;
          Alcotest.test_case "operators" `Quick test_lexer_operators;
          Alcotest.test_case "comments and strings" `Quick
            test_lexer_comments_strings;
          Alcotest.test_case "scientific notation" `Quick
            test_lexer_scientific_notation;
          Alcotest.test_case "errors" `Quick test_lexer_errors;
          Alcotest.test_case "positions" `Quick test_lexer_positions;
          Alcotest.test_case "keywords" `Quick test_lexer_keywords;
          Alcotest.test_case "frozen reference" `Quick test_lexer_reference ]
        @ qsuite [ prop_lexer_reference ] );
      ( "parser",
        [ Alcotest.test_case "heavy hitter example" `Quick test_parse_hh;
          Alcotest.test_case "arithmetic precedence" `Quick
            test_parse_expr_precedence;
          Alcotest.test_case "and/or precedence" `Quick
            test_parse_and_or_precedence;
          Alcotest.test_case "filter expressions" `Quick
            test_parse_filter_exprs;
          Alcotest.test_case "struct literal" `Quick test_parse_struct_lit;
          Alcotest.test_case "place variants" `Quick test_parse_place_variants;
          Alcotest.test_case "fundec" `Quick test_parse_fundec;
          Alcotest.test_case "else-if chain" `Quick test_parse_else_if_chain;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "small float round-trip" `Quick
            test_roundtrip_small_floats;
          Alcotest.test_case "HH round-trip" `Quick test_roundtrip_hh ]
        @ qsuite [ prop_expr_roundtrip ] );
      ( "typecheck",
        [ Alcotest.test_case "HH passes" `Quick test_typecheck_hh;
          Alcotest.test_case "unbound var" `Quick test_typecheck_unbound;
          Alcotest.test_case "bad transit" `Quick test_typecheck_bad_transit;
          Alcotest.test_case "type mismatch" `Quick
            test_typecheck_type_mismatch;
          Alcotest.test_case "util restrictions" `Quick
            test_typecheck_util_restrictions;
          Alcotest.test_case "unknown resource" `Quick
            test_typecheck_unknown_resource;
          Alcotest.test_case "duplicate state" `Quick
            test_typecheck_duplicate_state;
          Alcotest.test_case "unknown trigger" `Quick
            test_typecheck_trigger_event;
          Alcotest.test_case "string concat" `Quick test_string_concat;
          Alcotest.test_case "string arith rejected" `Quick
            test_typecheck_rejects_string_arith;
          Alcotest.test_case "inheritance override" `Quick
            test_inheritance_override;
          Alcotest.test_case "no shadowing" `Quick
            test_inheritance_no_shadowing;
          Alcotest.test_case "inheritance cycle" `Quick
            test_inheritance_cycle ] );
      ( "analysis",
        [ Alcotest.test_case "utility kappa (paper example)" `Quick
            test_analysis_utility_kappa;
          Alcotest.test_case "or split" `Quick test_analysis_utility_or_split;
          Alcotest.test_case "max split" `Quick
            test_analysis_utility_max_split;
          Alcotest.test_case "nonlinear rejected" `Quick
            test_analysis_utility_nonlinear_rejected;
          Alcotest.test_case "eval utility" `Quick test_analysis_eval_utility;
          Alcotest.test_case "polls" `Quick test_analysis_polls;
          Alcotest.test_case "const ival" `Quick test_analysis_const_ival;
          Alcotest.test_case "place all" `Quick test_analysis_place_all;
          Alcotest.test_case "place any" `Quick test_analysis_place_any;
          Alcotest.test_case "place range receiver" `Quick
            test_analysis_place_range;
          Alcotest.test_case "place midpoint" `Quick
            test_analysis_place_midpoint;
          Alcotest.test_case "place nodes by name" `Quick
            test_analysis_place_nodes_by_name ] );
      ( "interp",
        [ Alcotest.test_case "initial state" `Quick test_interp_initial_state;
          Alcotest.test_case "externals override" `Quick
            test_interp_externals_override;
          Alcotest.test_case "poll without HH" `Quick test_interp_poll_no_hh;
          Alcotest.test_case "poll detects HH" `Quick
            test_interp_poll_detects_hh;
          Alcotest.test_case "recv updates threshold" `Quick
            test_interp_recv_updates_threshold;
          Alcotest.test_case "unmatched recv" `Quick test_interp_unmatched_recv;
          Alcotest.test_case "snapshot/restore (migration)" `Quick
            test_interp_snapshot_restore;
          Alcotest.test_case "almanac function" `Quick
            test_interp_almanac_function;
          Alcotest.test_case "state locals reset" `Quick
            test_interp_state_locals_reset;
          Alcotest.test_case "state events override machine events" `Quick
            test_state_overrides_machine;
          Alcotest.test_case "trigger reassign notifies host" `Quick
            test_interp_trigger_reassign_notifies;
          Alcotest.test_case "runtime errors" `Quick
            test_interp_runtime_errors;
          Alcotest.test_case "machine-to-machine send" `Quick
            test_interp_machine_to_machine_send ]
        @ qsuite [ prop_utility_agrees_with_eval ] );
      ( "xml",
        [ Alcotest.test_case "escaping round-trip" `Quick
            test_xml_escaping_roundtrip;
          Alcotest.test_case "parser features" `Quick
            test_xml_parser_features;
          Alcotest.test_case "parse errors" `Quick test_xml_parse_errors;
          Alcotest.test_case "end of input" `Quick test_xml_end_of_input;
          Alcotest.test_case "HH round-trip" `Quick
            test_machine_xml_roundtrip_hh;
          Alcotest.test_case "catalog round-trip" `Quick
            test_machine_xml_roundtrip_catalog;
          Alcotest.test_case "decode errors" `Quick
            test_machine_xml_decode_errors ]
        @ qsuite [ prop_xml_roundtrip ] );
      ( "differential",
        [ Alcotest.test_case "catalog: interp vs compiled" `Quick
            test_differential_catalog;
          Alcotest.test_case "HH: interp vs compiled" `Quick
            test_differential_hh;
          Alcotest.test_case "== and <> evaluate left to right" `Quick
            test_eq_operand_order;
          Alcotest.test_case "generated-program corpus" `Quick
            test_generated_corpus;
          Alcotest.test_case "host overrides of built-ins" `Quick
            test_host_overrides;
          Alcotest.test_case "list caches keep nothing alive" `Quick
            test_list_caches_release;
          Alcotest.test_case "packed list = its List" `Quick test_packed_list_value;
          Alcotest.test_case "packed list leaves the engine as a List" `Quick
            test_packed_list_boundaries;
          Alcotest.test_case "return from a loop, recursion in an argument"
            `Quick test_early_return ]
        @ qsuite
            [ prop_differential_random; prop_shared_plan_no_interference;
              prop_generated_differential; prop_generated_equiv;
              prop_generated_roundtrip; prop_generated_machine_xml;
              prop_generated_reach_sound ] )
    ]
