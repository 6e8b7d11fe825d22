(* Symbolic-verification tests: the catalog and example corpus verifies
   clean (0 V401), hand-mutated compile plans are caught as V401 with a
   witness path, the V4xx fixture corpus triggers each new code, the
   reach-backed lint verdicts beat the syntactic heuristics, and the
   qcheck symbolic-vs-concrete soundness property. *)

module Ast = Farm_almanac.Ast
module Frontend = Farm_almanac.Frontend
module Compile = Farm_almanac.Compile
module Interp = Farm_almanac.Interp
module Semantics = Farm_almanac.Semantics
module Symexec = Farm_almanac.Symexec
module Equiv = Farm_almanac.Equiv
module Reach = Farm_almanac.Reach
module Lint = Farm_almanac.Lint
module Diagnostic = Farm_almanac.Diagnostic
module Value = Farm_almanac.Value
module Host = Farm_almanac.Host
module Builtins = Farm_almanac.Builtins
module Flow = Farm_net.Flow
module Task_common = Farm_tasks.Task_common
module Catalog = Farm_tasks.Catalog

let show ds = String.concat "\n" (List.map Diagnostic.to_string ds)
let codes ds = List.map (fun (d : Diagnostic.t) -> d.code) ds

let load ?extra source =
  match Frontend.load ?extra source with
  | Ok p -> p
  | Error ds -> Alcotest.failf "load failed:\n%s" (show ds)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ------------------------------------------------------------------ *)
(* Catalog + examples verify clean                                     *)
(* ------------------------------------------------------------------ *)

let test_catalog_clean () =
  Alcotest.(check bool) "catalog nonempty" true (List.length Catalog.all > 10);
  List.iter
    (fun (e : Task_common.entry) ->
      let p = load ~extra:e.extra_sigs e.source in
      let ds =
        Frontend.verify_report ~host_builtins:(List.map fst e.builtins) p
      in
      if ds <> [] then
        Alcotest.failf "catalog task %s not verify-clean:\n%s" e.name
          (show ds))
    Catalog.all

let example_files () =
  Sys.readdir "../examples" |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".alm")
  |> List.sort compare
  |> List.map (fun f -> Filename.concat "../examples" f)

let test_examples_clean () =
  let files = example_files () in
  Alcotest.(check bool) "examples nonempty" true (files <> []);
  List.iter
    (fun f ->
      let p = load (read_file f) in
      let ds = Frontend.verify_report p in
      if ds <> [] then
        Alcotest.failf "example %s not verify-clean:\n%s" f (show ds))
    files

(* ------------------------------------------------------------------ *)
(* V401: hand-mutated compile plans are caught                         *)
(* ------------------------------------------------------------------ *)

let small_source =
  {|
machine Small {
  place all;
  time tick = Time { .ival = 1 };
  long a = 1;
  long b = 0;
  state run {
    when (tick as t) do {
      if (t > 3) then { b = b + a; } else { b = b - 1; }
    }
  }
}
|}

let small_plan () =
  let p = load small_source in
  let m = List.hd p.machines in
  let c = Compile.compile ~program:p ~machine:m.Ast.mname in
  (p, m, c.Compile.c_plan)

let assert_v401 what ds =
  match List.filter (fun (d : Diagnostic.t) -> d.code = "V401") ds with
  | [] -> Alcotest.failf "%s: mutation not caught:\n%s" what (show ds)
  | d :: _ ->
      Alcotest.(check bool)
        (what ^ " is an error") true
        (Diagnostic.is_error d)

let test_mutated_global_init () =
  let p, m, plan = small_plan () in
  (* verifies clean before the mutation *)
  let clean =
    Equiv.verify_plan ~funcs:p.Ast.funcs ~machine:m ~plan ()
  in
  Alcotest.(check (list string)) "pristine plan clean" [] (codes clean);
  let plan =
    { plan with
      Compile.v_global_inits =
        List.map
          (fun (slot, name, ext, init) ->
            if name = "b" then (slot, name, ext, Compile.Vexpr (Ast.Int 7))
            else (slot, name, ext, init))
          plan.Compile.v_global_inits }
  in
  let ds = Equiv.verify_plan ~funcs:p.Ast.funcs ~machine:m ~plan () in
  assert_v401 "corrupted global initializer" ds

let mutate_tick_events plan f =
  { plan with
    Compile.v_states =
      List.map
        (fun (vs : Compile.vstate) ->
          { vs with
            Compile.vs_triggers =
              List.map
                (fun (name, evs) ->
                  if name = "tick" then (name, f evs) else (name, evs))
                vs.Compile.vs_triggers })
        plan.Compile.v_states }

let test_mutated_binding_slot () =
  let p, m, plan = small_plan () in
  (* point the trigger binding at a slot the frame never fills, so the
     compiled side reads the absent sentinel where the interpreter sees
     the payload — the PR7 bug class *)
  let plan =
    mutate_tick_events plan
      (List.map (fun (ev : Compile.vevent) ->
           match ev.Compile.ve_binding with
           | Some (n, slot) ->
               { ev with Compile.ve_binding = Some (n, slot + 7) }
           | None -> ev))
  in
  let ds = Equiv.verify_plan ~funcs:p.Ast.funcs ~machine:m ~plan () in
  assert_v401 "corrupted binding slot" ds;
  (* the witness names the diverging path *)
  let d = List.find (fun (d : Diagnostic.t) -> d.code = "V401") ds in
  Alcotest.(check bool)
    "carries a witness path" true
    (let msg = d.Diagnostic.message in
     let has sub =
       let n = String.length sub and ln = String.length msg in
       let rec go i = i + n <= ln && (String.sub msg i n = sub || go (i + 1)) in
       go 0
     in
     has "path [")

let test_dropped_dispatch_event () =
  let p, m, plan = small_plan () in
  let plan = mutate_tick_events plan (fun _ -> []) in
  let ds = Equiv.verify_plan ~funcs:p.Ast.funcs ~machine:m ~plan () in
  assert_v401 "dropped dispatch event" ds

(* ------------------------------------------------------------------ *)
(* V4xx fixture corpus                                                 *)
(* ------------------------------------------------------------------ *)

let fixture name = load (read_file (Filename.concat "lint_fixtures" name))

let test_v402_path_budget () =
  let p = fixture "v402_path_budget.alm" in
  let ds = Equiv.verify_program ~program:p () in
  (match List.filter (fun (d : Diagnostic.t) -> d.code = "V402") ds with
  | [] -> Alcotest.failf "no V402 on symbolic loop:\n%s" (show ds)
  | d :: _ ->
      Alcotest.(check bool) "V402 is a warning" false (Diagnostic.is_error d);
      Alcotest.(check bool)
        "V402 names the budget knob" true
        (let msg = d.Diagnostic.message in
         let n = String.length "--max-paths" in
         let rec go i =
           i + n <= String.length msg
           && (String.sub msg i n = "--max-paths" || go (i + 1))
         in
         go 0));
  (* incomplete exploration must withhold precise reach claims *)
  List.iter
    (fun (r : Reach.result) ->
      Alcotest.(check bool) "reach marked incomplete" false r.complete)
    (Reach.analyze_program ~program:p ())

let test_v403_invariant () =
  let p = fixture "v403_invariant.alm" in
  let rs = Reach.analyze_program ~program:p () in
  let ds = List.concat_map (fun (r : Reach.result) -> r.diags) rs in
  match List.filter (fun (d : Diagnostic.t) -> d.code = "V403") ds with
  | [] -> Alcotest.failf "no V403 on failing assert:\n%s" (show ds)
  | d :: _ ->
      Alcotest.(check bool) "V403 is an error" true (Diagnostic.is_error d);
      Alcotest.(check bool)
        "V403 carries a witness" true
        (let msg = d.Diagnostic.message in
         let n = String.length "witness" in
         let rec go i =
           i + n <= String.length msg
           && (String.sub msg i n = "witness" || go (i + 1))
         in
         go 0)

let test_v404_index_oob () =
  let p = fixture "v404_index_oob.alm" in
  let rs = Reach.analyze_program ~program:p () in
  let ds = List.concat_map (fun (r : Reach.result) -> r.diags) rs in
  match List.filter (fun (d : Diagnostic.t) -> d.code = "V404") ds with
  | [] -> Alcotest.failf "no V404 on unconstrained index:\n%s" (show ds)
  | d :: _ ->
      Alcotest.(check bool) "V404 is a warning" false (Diagnostic.is_error d)

(* the fixtures still translate correctly: no V401 anywhere *)
let test_fixtures_no_divergence () =
  List.iter
    (fun name ->
      let p = fixture name in
      let ds = Equiv.verify_program ~program:p () in
      match List.filter (fun (d : Diagnostic.t) -> d.code = "V401") ds with
      | [] -> ()
      | bad -> Alcotest.failf "%s has V401:\n%s" name (show bad))
    [ "v402_path_budget.alm"; "v403_invariant.alm"; "v404_index_oob.alm" ]

(* ------------------------------------------------------------------ *)
(* Reach-backed lint beats the syntactic heuristics                    *)
(* ------------------------------------------------------------------ *)

(* [k] is constant 1, so the guarded transit to [b] can never fire: the
   syntactic DFS believes [b] reachable, the reach analysis proves it
   is not (and the transit dead). *)
let precise_source =
  {|
machine Precise {
  place all;
  time tick = Time { .ival = 1 };
  long k = 1;
  long n = 0;
  state a {
    when (tick as t) do {
      n = n + 1;
      if (k > 2) then { transit b; }
    }
  }
  state b {
    when (tick as t) do { n = 0; }
  }
}
|}

let test_reach_upgrades_lint () =
  let p = load precise_source in
  let m = List.hd p.machines in
  (* heuristic verdict: everything fine *)
  let syntactic = Lint.check_machine m in
  Alcotest.(check (list string)) "syntactic lint blind" [] (codes syntactic);
  (* reach verdict: b unreachable, its transit dead *)
  let r = Reach.analyze ~funcs:p.Ast.funcs ~machine:m () in
  Alcotest.(check bool) "analysis complete" true r.Reach.complete;
  Alcotest.(check (list string)) "only a reachable" [ "a" ] r.Reach.reachable;
  Alcotest.(check bool) "no livelock" true (r.Reach.livelock = None);
  let ds = Lint.check_machine ~reach:r m in
  Alcotest.(check (list string))
    "reach-backed verdicts" [ "L101"; "L102" ]
    (List.sort compare (codes ds));
  List.iter
    (fun (d : Diagnostic.t) ->
      Alcotest.(check bool) "positioned" true (d.pos <> Ast.no_pos))
    ds

(* A guaranteed (but conditional-looking) enter-transit cycle the
   syntactic L107 misses: both branches forward. *)
let sneaky_livelock_source =
  {|
machine Sneaky {
  place all;
  time tick = Time { .ival = 1 };
  long n = 0;
  state a {
    when (enter) do {
      if (n > 0) then { transit b; } else { transit b; }
    }
    when (tick as t) do { n = n + 1; }
  }
  state b {
    when (enter) do { transit a; }
    when (tick as t) do { n = 0; }
  }
}
|}

let test_reach_livelock () =
  let p = load sneaky_livelock_source in
  let m = List.hd p.machines in
  let syntactic = Lint.check_machine m in
  Alcotest.(check bool)
    "syntactic L107 blind to branch forwarding" false
    (List.mem "L107" (codes syntactic));
  let r = Reach.analyze ~funcs:p.Ast.funcs ~machine:m () in
  (match r.Reach.livelock with
  | Some _ -> ()
  | None -> Alcotest.fail "reach missed the guaranteed forwarding cycle");
  let ds = Lint.check_machine ~reach:r m in
  Alcotest.(check bool) "reach-backed L107" true (List.mem "L107" (codes ds));
  Alcotest.(check bool)
    "L107 is an error" true
    (List.exists
       (fun (d : Diagnostic.t) -> d.code = "L107" && Diagnostic.is_error d)
       ds)

(* An incomplete reach result must fall back to the heuristics. *)
let test_incomplete_reach_falls_back () =
  let p = load precise_source in
  let m = List.hd p.machines in
  let r = Reach.analyze ~funcs:p.Ast.funcs ~machine:m () in
  let fake = { r with Reach.complete = false } in
  Alcotest.(check (list string))
    "incomplete reach ignored" (codes (Lint.check_machine m))
    (codes (Lint.check_machine ~reach:fake m))

(* Both engines deliver a message to the first arm that accepts it, so
   the second arm (same sender, same kind of value) never runs: B is
   unreachable, A is not. *)
let shadowed_recv_source =
  {|
machine Shadowed {
  place all;
  state s0 {
    when (recv long x from harvester) do { transit A; }
    when (recv long y from harvester) do { transit B; }
  }
  state A { }
  state B { }
}
|}

let test_reach_shadowed_recv () =
  let p = load shadowed_recv_source in
  let m = List.hd p.machines in
  let t = Interp.create ~program:p ~machine:"Shadowed" Host.null_host in
  Interp.start t;
  ignore (Interp.deliver t ~from:Host.From_harvester (Value.Num 1.));
  Alcotest.(check string) "interp runs the first arm" "A" (Interp.current_state t);
  let r = Reach.analyze ~funcs:p.Ast.funcs ~machine:m () in
  Alcotest.(check bool) "analysis complete" true r.Reach.complete;
  Alcotest.(check (list string)) "reachable" [ "s0"; "A" ] r.Reach.reachable;
  let unreachable =
    List.filter_map
      (fun (d : Diagnostic.t) ->
        if d.code = "L101" then Some d.Diagnostic.message else None)
      (Lint.check_machine ~reach:r m)
  in
  let names state =
    List.exists
      (fun msg ->
        let s = "state " ^ state ^ " " in
        let n = String.length s in
        let rec go i =
          i + n <= String.length msg && (String.sub msg i n = s || go (i + 1))
        in
        go 0)
      unreachable
  in
  Alcotest.(check bool) "L101 for B" true (names "B");
  Alcotest.(check bool) "no L101 for A" false (names "A")

(* ------------------------------------------------------------------ *)
(* Verifier crashes on type-correct programs                          *)
(* ------------------------------------------------------------------ *)

(* Each handler fails at run time (a negative index, an index of
   another kind).  The verifier used to raise out of its folds over
   known lists and stats instead: each must be a path error with the
   interpreter's message. *)
let crasher_source body =
  Printf.sprintf
    {|
machine Crash {
  place all;
  poll p = Poll { .ival = 0.001, .what = port ANY };
  list g = [1, 2];
  list l = [1, 2];
  long a = 0;
  state s0 {
    when (p as st) do { %s }
  }
}
|}
    body

let outcome_str (p : Symexec.path) =
  match p.outcome with
  | Symexec.Running -> "running"
  | Symexec.Err m -> "error: " ^ m
  | Symexec.Aviol _ -> "assert"
  | Symexec.Unknown m -> "unknown: " ^ m

let test_verify_crashers () =
  List.iter
    (fun body ->
      let p = load (crasher_source body) in
      (match Frontend.verify_report p with
      | _ -> ()
      | exception e ->
          Alcotest.failf "%s: verify raised %s" body (Printexc.to_string e));
      let t = Interp.create ~program:p ~machine:"Crash" Host.null_host in
      Interp.start t;
      let expected =
        match Interp.fire_trigger t "p" (Value.Stats [| 3.; 4. |]) with
        | () -> Alcotest.failf "%s: the handler did not fail" body
        | exception (Host.Runtime_error m | Value.Type_error m) -> m
      in
      let svar n = Symexec.Svar (n, None) in
      let spine n = Symexec.slist [ svar (n ^ "0"); svar (n ^ "1") ] in
      let store =
        Symexec.mk_istore
          ~globals:[ ("p", svar "p"); ("g", spine "g"); ("l", spine "l"); ("a", svar "a") ]
          ~locals:[]
      in
      let ctx =
        Symexec.make_ctx ~funcs:(Symexec.Ifuncs []) ~hooks:[ ("p", Ast.Poll) ] ()
      in
      let ev = List.hd (List.hd (List.hd p.machines).Ast.states).Ast.sevents in
      let paths =
        Symexec.run_events ctx store
          [ { Symexec.eu_body = ev.Ast.body;
              eu_frame =
                Symexec.Fnames
                  [ ("st", Symexec.sstats [| svar "s0"; svar "s1" |]) ] } ]
          ~binding:(svar "in")
      in
      Alcotest.(check (list string))
        (body ^ ": symbolic outcome") [ "error: " ^ expected ]
        (List.map outcome_str paths))
    [ "a = nth(g, -1);";
      {|a = stat(st, nth(["s", 1], 0));|};
      "l = set_nth(l, nth([[1], 2], 0), 5);" ]

(* ------------------------------------------------------------------ *)
(* qcheck: symbolic paths partition concrete executions                *)
(* ------------------------------------------------------------------ *)

(* For a random catalog machine, a random trigger and random concrete
   inputs: exactly one symbolic path condition is satisfied by the
   input, and that path predicts the interpreter's store, effects and
   transit. *)

let mk_packet round =
  let tuple =
    { Flow.src =
        Farm_net.Ipaddr.of_string
          (Printf.sprintf "10.0.%d.%d" (round mod 4) ((round mod 7) + 1));
      dst = Farm_net.Ipaddr.of_string "10.1.0.1";
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
  Flow.packet ~flags ~payload:"q0.attack.example.com" tuple
    (200 + (100 * round))

let trig_value (tt : Ast.trigger_type) ~round =
  match tt with
  | Ast.Poll ->
      Value.Stats
        (Array.init 16 (fun i ->
             if round = 0 then 0.
             else float_of_int (((round * 271) + (i * 157)) mod 2000)))
  | Ast.Probe -> Value.Packet (mk_packet round)
  | Ast.Time -> Value.Num (float_of_int round *. 0.5)

let target_str = function
  | Host.To_harvester -> "harvester"
  | Host.To_machine (m, None) -> m
  | Host.To_machine (m, Some d) -> Printf.sprintf "%s@%d" m d

let qcases =
  lazy
    (List.concat_map
       (fun (e : Task_common.entry) ->
         let p = load ~extra:e.extra_sigs e.source in
         List.filter_map
           (fun (m : Ast.machine) ->
             if m.Ast.states = [] || m.Ast.mtrigs = [] then None
             else Some (e, p, m))
           p.machines)
       Catalog.all)

let full_checks = ref 0

(* returns [true]; reports failures through QCheck2.Test.fail_reportf *)
let episode ~case ~round ~warmup =
  let cases = Lazy.force qcases in
  let (e : Task_common.entry), program, m =
    List.nth cases (case mod List.length cases)
  in
  let stubs =
    List.map
      (fun n -> (n, fun (_ : Value.t list) -> Value.Unit))
      Builtins.soil_effects
    @ [ ("self_switch", fun _ -> Value.Num 0.) ]
    @ e.builtins
  in
  let log = ref [] in
  let host =
    { Host.null_host with
      Host.h_send =
        (fun target v ->
          log :=
            Printf.sprintf "send:%s:%s" (target_str target)
              (Value.to_string v)
            :: !log);
      h_set_trigger =
        (fun name _ v ->
          log :=
            Printf.sprintf "settrig:%s:%s" name (Value.to_string v) :: !log);
      h_builtin = (fun name -> List.assoc_opt name stubs);
      h_on_transit =
        (fun a b -> log := Printf.sprintf "transit:%s->%s" a b :: !log);
      h_log = (fun msg -> log := ("log:" ^ msg) :: !log) }
  in
  let externals =
    Option.value ~default:[] (List.assoc_opt m.Ast.mname e.externals)
  in
  let t = Interp.create ~externals ~program ~machine:m.Ast.mname host in
  Interp.start t;
  (* shake the instance off its initial store *)
  for i = 1 to warmup do
    List.iter
      (fun (td : Ast.trig_decl) ->
        try Interp.fire_trigger t td.Ast.tname (trig_value td.ttyp ~round:i)
        with Host.Runtime_error _ -> ())
      m.Ast.mtrigs
  done;
  let td = List.nth m.Ast.mtrigs (round mod List.length m.Ast.mtrigs) in
  let pre_state = Interp.current_state t in
  let st =
    List.find (fun (s : Ast.state_decl) -> s.sname = pre_state) m.Ast.states
  in
  let gnames =
    List.map (fun (v : Ast.var_decl) -> v.vname) m.Ast.mvars
    @ List.map (fun (tr : Ast.trig_decl) -> tr.tname) m.Ast.mtrigs
  in
  let lnames = List.map (fun (v : Ast.var_decl) -> v.vname) st.Ast.slocals in
  if List.exists (fun n -> List.mem n gnames) lnames then true
  else begin
    let events =
      Semantics.events_for m st (Semantics.Var td.Ast.tname)
    in
    if events = [] then true
    else begin
      let conc n =
        (n, Symexec.Con (Option.value ~default:Value.Unit (Interp.var t n)))
      in
      let store =
        Symexec.mk_istore ~globals:(List.map conc gnames)
          ~locals:(List.map conc lnames)
      in
      let input = Symexec.Svar ("input", None) in
      let eus =
        List.map
          (fun (ev : Ast.event) ->
            { Symexec.eu_body = ev.body;
              eu_frame =
                Symexec.Fnames
                  (match ev.trigger with
                  | Ast.On_trigger_var (_, Some x) -> [ (x, input) ]
                  | _ -> []) })
          events
      in
      let ctx =
        Symexec.make_ctx ~host_builtins:(List.map fst stubs)
          ~funcs:
            (Symexec.Ifuncs
               (List.map
                  (fun (f : Ast.func_decl) -> (f.fname, f))
                  program.Ast.funcs))
          ~hooks:
            (List.map
               (fun (tr : Ast.trig_decl) -> (tr.tname, tr.ttyp))
               m.Ast.mtrigs)
          ()
      in
      let paths = Symexec.run_events ctx store eus ~binding:input in
      let unknown =
        List.exists
          (fun (p : Symexec.path) ->
            match p.outcome with Symexec.Unknown _ -> true | _ -> false)
          paths
      in
      if unknown then true
      else begin
        let v = trig_value td.Ast.ttyp ~round in
        let lookup n =
          if n = "input" then v
          else Host.fail "free symbolic variable %s" n
        in
        (* pc_sat deems an atom it cannot evaluate unsatisfied, so an
           opaque-guarded episode would look like "0 paths" — detect and
           skip those instead of failing *)
        let decidable =
          List.for_all
            (fun (p : Symexec.path) ->
              List.for_all
                (fun (t, _) ->
                  match Symexec.eval_sym lookup t with
                  | _ -> true
                  | exception _ -> false)
                p.Symexec.pc)
            paths
        in
        if not decidable then true
        else
          let sat =
            List.filter
              (fun (p : Symexec.path) -> Symexec.pc_sat lookup p.pc)
              paths
          in
            if List.length sat <> 1 then
              QCheck2.Test.fail_reportf
                "%s/%s trig %s round %d: %d of %d path conditions satisfied"
                e.name m.Ast.mname td.Ast.tname round (List.length sat)
                (List.length paths);
            let p = List.hd sat in
            log := [];
            let raised =
              try
                Interp.fire_trigger t td.Ast.tname v;
                false
              with Host.Runtime_error _ -> true
            in
            let ctxs =
              Printf.sprintf "%s/%s trig %s round %d" e.name m.Ast.mname
                td.Ast.tname round
            in
            (match p.Symexec.outcome with
            | Symexec.Err _ | Symexec.Aviol _ ->
                if not raised then
                  QCheck2.Test.fail_reportf
                    "%s: symbolic path fails, interpreter succeeded" ctxs
            | Symexec.Unknown _ -> ()
            | Symexec.Running ->
                if raised then
                  QCheck2.Test.fail_reportf
                    "%s: interpreter raised, symbolic path runs" ctxs;
                let resolve_target () =
                  match p.Symexec.pending with
                  | None -> None
                  | Some (Symexec.Pconc (tgt, _)) -> Some tgt
                  | Some (Symexec.Psym (s, _)) -> (
                      try
                        Some (Value.to_string (Symexec.eval_sym lookup s))
                      with _ -> None)
                in
                (match resolve_target () with
                | Some tgt when tgt <> pre_state ->
                    (* the handler decided a transit: the first transit
                       the host saw must be exactly it (enter handlers
                       may chain further) *)
                    let expected =
                      Printf.sprintf "transit:%s->%s" pre_state tgt
                    in
                    let first_transit =
                      List.find_opt
                        (fun entry ->
                          String.length entry >= 8
                          && String.sub entry 0 8 = "transit:")
                        (List.rev !log)
                    in
                    if first_transit <> Some expected then
                      QCheck2.Test.fail_reportf
                        "%s: predicted %s, interpreter did %s" ctxs expected
                        (Option.value ~default:"no transit" first_transit)
                | _ ->
                    (* settled: state, stores and effects must agree *)
                    if Interp.current_state t <> pre_state then
                      QCheck2.Test.fail_reportf
                        "%s: no transit predicted but state moved %s -> %s"
                        ctxs pre_state (Interp.current_state t);
                    let check_var scope n peek =
                      match peek p.Symexec.store n with
                      | None -> ()
                      | Some s -> (
                          match
                            try Some (Symexec.eval_sym lookup s)
                            with _ -> None (* opaque host result *)
                          with
                          | None -> ()
                          | Some predicted ->
                              let actual =
                                Option.value ~default:Value.Unit
                                  (Interp.var t n)
                              in
                              if not (Value.equal predicted actual) then
                                QCheck2.Test.fail_reportf
                                  "%s: %s %s predicted %s, interpreter has \
                                   %s"
                                  ctxs scope n
                                  (Value.to_string predicted)
                                  (Value.to_string actual))
                    in
                    List.iter
                      (fun n -> check_var "global" n Symexec.peek_global)
                      gnames;
                    List.iter
                      (fun n -> check_var "local" n Symexec.peek_local)
                      lnames;
                    let predicted_effects =
                      try
                        Some
                          (List.filter_map
                             (fun (ef : Symexec.effect_) ->
                               match ef with
                               | Symexec.Ecall (f, _) when f <> "log" ->
                                   None (* host stub: no log entry *)
                               | Symexec.Ecall (_, [ a ]) ->
                                   Some
                                     ("log:"
                                     ^ Value.to_string
                                         (Symexec.eval_sym lookup a))
                               | Symexec.Ecall (_, _) -> Some "log:?"
                               | Symexec.Esend (tgt, pay) ->
                                   let tgt =
                                     match tgt with
                                     | Symexec.To_harvester -> "harvester"
                                     | Symexec.To_machine (mn, None) -> mn
                                     | Symexec.To_machine (mn, Some d) ->
                                         Printf.sprintf "%s@%d" mn
                                           (int_of_float
                                              (Value.as_num
                                                 (Symexec.eval_sym lookup d)))
                                   in
                                   Some
                                     (Printf.sprintf "send:%s:%s" tgt
                                        (Value.to_string
                                           (Symexec.eval_sym lookup pay)))
                               | Symexec.Etrig (n, _, s) ->
                                   Some
                                     (Printf.sprintf "settrig:%s:%s" n
                                        (Value.to_string
                                           (Symexec.eval_sym lookup s))))
                             (List.rev p.Symexec.effects))
                      with _ -> None
                    in
                    (match predicted_effects with
                    | None -> ()
                    | Some pe ->
                        let concrete = List.rev !log in
                        if pe <> concrete then
                          QCheck2.Test.fail_reportf
                            "%s: effects differ\n  predicted: %s\n  \
                             interpreter: %s"
                            ctxs (String.concat " | " pe)
                            (String.concat " | " concrete));
                    incr full_checks));
            true
      end
    end
  end

let prop_symbolic_soundness =
  QCheck2.Test.make
    ~name:"each concrete run satisfies exactly one symbolic path" ~count:150
    ~print:(fun (case, round, warmup) ->
      Printf.sprintf "case=%d round=%d warmup=%d" case round warmup)
    QCheck2.Gen.(triple (int_bound 1_000) (int_range 0 40) (int_bound 3))
    (fun (case, round, warmup) -> episode ~case ~round ~warmup)

let test_soundness_coverage () =
  (* the property must have fully compared settled episodes, not skipped
     its way to green *)
  if !full_checks < 20 then
    Alcotest.failf "only %d fully-checked episodes" !full_checks

(* ------------------------------------------------------------------ *)
(* The built-in catalogue                                              *)
(* ------------------------------------------------------------------ *)

(* One argument per signature type: its source and its value ([st] is
   the poll binding of [test_catalogue]'s machine). *)
let catalogue_arg (t : Builtins.sigty) =
  let any = Value.FilterV (Farm_net.Filter.atom Farm_net.Filter.Any) in
  let drop = Value.Action Farm_net.Tcam.Drop in
  match t with
  | Numeric | Any -> ("1", Value.Num 1.)
  | Ty Tlist -> ("[1, 2]", Value.List [ Value.Num 1.; Value.Num 2. ])
  | Ty Tstats -> ("st", Value.Stats [| 1.; 2. |])
  | Ty Tstring -> ({|"svr 2"|}, Value.Str "svr 2")
  | Ty Tbool -> ("true", Value.Bool true)
  | Ty Tfilter -> ("port ANY", any)
  | Ty Taction -> ("drop_action()", drop)
  | Ty Trule ->
      ( "mkRule(port ANY, drop_action())",
        Value.Struct ("Rule", [ ("pattern", any); ("act", drop) ]) )
  | Ty t -> Alcotest.failf "no argument of type %s" (Ast.typ_to_string t)

(* Each row is one built-in everywhere: its one-call machine
   type-checks, a pure row folds to the value its entry computes, no
   row is an unknown function to Symexec, and the soil host serves
   every soil row. *)
let test_catalogue () =
  List.iter
    (fun (r : Builtins.row) ->
      let srcs, vals = List.split (List.map catalogue_arg r.signature.args) in
      let program =
        load
          (Printf.sprintf
             {|machine Cat {
  place all;
  poll p = Poll { .ival = 0.01, .what = port ANY };
  state s { when (%s) do { %s(%s); } }
}|}
             (match r.runs with Soil -> "enter" | _ -> "p as st")
             r.name (String.concat ", " srcs))
      in
      let names = List.mapi (fun i _ -> Printf.sprintf "a%d" i) vals in
      let call = Ast.Call (r.name, List.map (fun n -> Ast.Var n) names) in
      let store =
        Symexec.mk_istore ~locals:[]
          ~globals:
            (("r", Symexec.Con Value.Unit)
            :: List.map2 (fun n v -> (n, Symexec.Con v)) names vals)
      in
      let ctx =
        Symexec.make_ctx ~host_builtins:Builtins.soil_effects
          ~funcs:(Symexec.Ifuncs []) ~hooks:[] ()
      in
      let paths =
        Symexec.exec_stmts ctx (Symexec.init_path store)
          [ { Ast.sk = Ast.Assign ("r", call); sloc = Ast.no_pos } ]
      in
      let folded (p : Symexec.path) =
        match (p.outcome, Symexec.peek_global p.store "r") with
        | Running, Some (Con v) -> "running " ^ Value.to_string v
        | _ -> outcome_str p
      in
      let got = List.map folded paths in
      if List.mem ("error: unknown function " ^ r.name) got then
        Alcotest.failf "%s is an unknown function to Symexec" r.name;
      match r.runs with
      | Pure e ->
          let expected =
            match e.call vals with
            | v -> "running " ^ Value.to_string v
            | exception (Host.Runtime_error m | Value.Type_error m) ->
                "error: " ^ m
          in
          Alcotest.(check (list string)) (r.name ^ " folds") [ expected ] got
      | Engine _ -> ()
      | Soil -> (
          let soil =
            Farm_runtime.Soil.create (Farm_sim.Engine.create ())
              (Farm_net.Switch_model.create ~id:0 ~ports:4 ())
          in
          match
            Farm_runtime.Seed_exec.deploy ~soil
              ~plan:
                (Farm_almanac.Engine.prepare ~engine:`Compiled ~program
                   ~machine:"Cat")
              ~resources:(Array.make Farm_almanac.Analysis.n_resources 1.)
              ~polls:
                (Result.get_ok
                   (Farm_almanac.Analysis.polls (List.hd program.machines)))
              ~send:(fun _ _ _ -> ()) ~seed_id:0 ()
          with
          | _ -> ()
          | exception Host.Runtime_error m ->
              Alcotest.failf "the soil host does not serve %s: %s" r.name m))
    Builtins.catalogue

let () =
  Alcotest.run "verify"
    [ ( "equiv",
        [ Alcotest.test_case "catalog verifies clean" `Quick
            test_catalog_clean;
          Alcotest.test_case "examples verify clean" `Quick
            test_examples_clean ] );
      ( "mutations",
        [ Alcotest.test_case "corrupted global init caught" `Quick
            test_mutated_global_init;
          Alcotest.test_case "corrupted binding slot caught" `Quick
            test_mutated_binding_slot;
          Alcotest.test_case "dropped dispatch event caught" `Quick
            test_dropped_dispatch_event ] );
      ( "fixtures",
        [ Alcotest.test_case "v402 path budget" `Quick test_v402_path_budget;
          Alcotest.test_case "v403 invariant witness" `Quick
            test_v403_invariant;
          Alcotest.test_case "v404 index range" `Quick test_v404_index_oob;
          Alcotest.test_case "fixtures have no V401" `Quick
            test_fixtures_no_divergence ] );
      ( "reach-lint",
        [ Alcotest.test_case "reach upgrades L101/L102" `Quick
            test_reach_upgrades_lint;
          Alcotest.test_case "reach-backed L107" `Quick test_reach_livelock;
          Alcotest.test_case "incomplete reach falls back" `Quick
            test_incomplete_reach_falls_back;
          Alcotest.test_case "shadowed recv arm never runs" `Quick
            test_reach_shadowed_recv;
          Alcotest.test_case "index errors are path errors" `Quick
            test_verify_crashers ] );
      ( "catalogue",
        [ Alcotest.test_case "one built-in everywhere" `Quick test_catalogue ] );
      ( "soundness",
        List.map QCheck_alcotest.to_alcotest [ prop_symbolic_soundness ]
        @ [ Alcotest.test_case "episodes fully checked" `Quick
              test_soundness_coverage ] ) ]
