(* Each entry point composes these pieces into the passes it runs; none
   of them knows who calls it. *)

let load ?extra source =
  match Parser.program_result source with
  | Error d -> Error [ d ]
  | Ok parsed -> Typecheck.check_diags ?extra parsed

(* The bindings a deployment gives machine [m]: its entry in the task's
   per-machine [externals] first, then literal initializers of [m]'s
   variables. *)
let deploy_bindings ~externals (m : Ast.machine) : Analysis.bindings =
  let bound = Option.value (List.assoc_opt m.mname externals) ~default:[] in
  fun name ->
    match List.assoc_opt name bound with
    | Some _ as v -> v
    | None ->
        List.find_map
          (fun (v : Ast.var_decl) ->
            if v.vname <> name then None
            else
              match v.vinit with
              | Some (Ast.Int i) -> Some (Value.Num (float_of_int i))
              | Some (Ast.Float f) -> Some (Value.Num f)
              | Some (Ast.String s) -> Some (Value.Str s)
              | Some (Ast.Bool b) -> Some (Value.Bool b)
              | _ -> None)
          m.mvars

(* B201: per machine, the util envelope against the subscriptions' CPU
   floor.  Machines whose polls or utils do not analyze are left to the
   passes that report them. *)
let bounds ~model ~file ~externals (p : Ast.program) =
  List.concat_map
    (fun (m : Ast.machine) ->
      let bindings = deploy_bindings ~externals m in
      match Analysis.polls ~bindings m with
      | Error _ -> []
      | Ok polls ->
          let state_utils =
            List.filter_map
              (fun (st : Ast.state_decl) ->
                Option.bind st.sutil (fun u ->
                    match Analysis.utility ~bindings u with
                    | Ok branches -> Some (st.sname, branches)
                    | Error _ -> None))
              m.states
          in
          Bounds.cross_check ~model ~file ~machine:m ~polls ~state_utils ())
    p.machines

let lint_program ?file ?(externals = []) ?reach p =
  Lint.check_program ?file
    ~externals:(List.map (fun (m, vs) -> (m, List.map fst vs)) externals)
    ?reach p

let lint ~model ~file ?extra ?(externals = []) source =
  match load ?extra source with
  | Error ds -> (Diagnostic.with_file file ds, None)
  | Ok p ->
      let lint = lint_program ~file ~externals p in
      (Diagnostic.sort (lint @ bounds ~model ~file ~externals p), Some p)

let analyze ~topo ?(externals = []) (p : Ast.program) =
  List.map
    (fun m ->
      let bindings = deploy_bindings ~externals m in
      Result.map
        (fun s -> (s, bindings))
        (Analysis.summarize ~bindings ~topo m))
    p.machines

let verify ?budget ?(host_builtins = []) program =
  let host_builtins = Builtins.soil_effects @ host_builtins in
  let equiv = Equiv.verify_program ?budget ~host_builtins ~program () in
  let reach = Reach.analyze_program ?budget ~host_builtins ~program () in
  (equiv @ List.concat_map (fun (r : Reach.result) -> r.diags) reach, reach)

let verify_report ?budget ?host_builtins program =
  let ds, reach = verify ?budget ?host_builtins program in
  let reach_backed (d : Diagnostic.t) =
    match d.code with "L101" | "L102" | "L107" -> true | _ -> false
  in
  Diagnostic.sort
    (ds @ List.filter reach_backed (lint_program ~reach program))
