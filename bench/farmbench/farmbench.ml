(* farmbench: FARM's end-to-end and per-layer benchmark.

     farmbench run --workload W --seed N --seconds S --trace 0|1
         One workload in this process.  With --trace 0 it runs one batch of
         the workload, sets the world up repeatedly for 3 s (set-up
         time), then repeats the batch while another one fits in S seconds;
         with --trace 1 it runs one traced batch between two untraced ones
         and then the layer phase.  The last line of output is a JSON object
         {correct, attempted, failed, metrics}.
     farmbench all [--seed N] [--out FILE] [--smoke] [--manifest FILE]
         Every workload as fresh child processes, one at a time: three
         untraced runs, one traced run, then the layer phase.  Writes FILE
         (default farmbench.json) and farmbench_trace.json beside it, and
         exits non-zero if any correctness check fails.
     farmbench layers [--min-time S]
         The layer phase alone, printed.
     farmbench compare A.json B.json
         Median delta of every metric of B against A and its bound.
     farmbench manifest
         The end_to_end and per_layer arrays BENCHMARK.json must hold. *)

module W = Workloads
module M = Measure

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("farmbench: " ^ s); exit 2) fmt

(* --key value options and bare --flags *)
let parse_opts args =
  let is_key s = String.length s > 2 && String.sub s 0 2 = "--" in
  let rec go acc = function
    | [] -> acc
    | k :: v :: rest when is_key k && not (is_key v) -> go ((k, Some v) :: acc) rest
    | k :: rest -> go ((k, None) :: acc) rest
  in
  let opts = go [] args in
  let get k = Option.join (List.assoc_opt k opts) in
  let flag k = List.mem_assoc k opts in
  (get, flag)

let int_opt get k ~default =
  match get k with
  | None -> default
  | Some v -> (
      match int_of_string_opt v with
      | Some n -> n
      | None -> die "%s: not an integer: %s" k v)

let manifest_workloads = List.map (fun (w : W.t) -> (w.name, w.why)) W.all

let manifest_unit name =
  match Manifest.find name with Some m -> m.unit | None -> "?"

let print_metric name v =
  Printf.printf "  %-48s %14.6g %s\n" name v (manifest_unit name)

let result_line ~correct ~attempted ~failed metrics =
  Json.to_string
    (Json.Obj
       [ ("correct", Json.Bool correct);
         ("attempted", Json.Num (float_of_int attempted));
         ("failed", Json.Num (float_of_int failed));
         ("metrics",
          Json.Obj
            (List.map
               (fun (n, v) ->
                 ( n,
                   Json.Obj
                     [ ("value", Json.Num v); ("unit", Json.Str (manifest_unit n)) ] ))
               metrics)) ])

let print_table table =
  Printf.printf "  %-24s %9s %7s\n" "task" "answered" "missed";
  List.iter (fun (t, a, m) -> Printf.printf "  %-24s %9d %7d\n" t a m) table

let table_json table =
  Json.Arr
    (List.map
       (fun (t, a, m) ->
         Json.Obj
           [ ("task", Json.Str t); ("answered", Json.Num (float_of_int a));
             ("missed", Json.Num (float_of_int m)) ])
       table)

let checks_json checks =
  Json.Arr
    (List.map
       (fun (n, ok) -> Json.Obj [ ("check", Json.Str n); ("ok", Json.Bool ok) ])
       checks)

(* ------------------------------------------------------------------ *)
(* run: one workload in this process                                   *)
(* ------------------------------------------------------------------ *)

(* Set-ups are repeated for at least this long, and at least nine times,
   so the median and the deploy latencies they contribute are steady even
   for the cheapest set-up. *)
let setup_seconds = 3.

let end_to_end (reps : M.rep list) ~setup_s ~deploy_ms =
  let first = List.hd reps in
  [ ("sim_s_per_wall_s",
     Stats.median (List.map (fun (r : M.rep) -> r.sim_s /. r.wall_s) reps));
    ("setup_s", Stats.median setup_s);
    ("deploy_ms_p50", Stats.percentile deploy_ms 50.);
    ("deploy_ms_p90", Stats.percentile deploy_ms 90.);
    ("response_sim_ms_p50", Stats.percentile first.responses_ms 50.);
    ("response_sim_ms_p80", Stats.percentile first.responses_ms 80.);
    ("ok_share",
     1. -. (float_of_int first.failed /. float_of_int (max 1 first.attempted)));
    ("heap_peak_mb", first.top_heap_mb) ]

(* Tracing overhead of the traced rep against each untraced one, in %. *)
let overheads ~traced_wall untraced_walls =
  List.map (fun u -> 100. *. ((traced_wall /. u) -. 1.)) untraced_walls

let per_layer (reps : M.rep list) =
  let traced = List.find (fun (r : M.rep) -> r.traced) reps in
  let untraced = List.filter (fun (r : M.rep) -> not r.traced) reps in
  let u = List.hd untraced in
  [ ("sim.engine.events", float_of_int traced.events);
    ("sim.trace.overhead_pct",
     Stats.median
       (overheads ~traced_wall:traced.wall_s
          (List.map (fun (r : M.rep) -> r.wall_s) untraced))) ]
  @ traced.counts
  @ [ ("runtime.seeder.ms_per_undeploy",
       Stats.median (List.concat_map (fun (r : M.rep) -> r.undeploy_ms) reps));
      ("gc.alloc_bytes_per_event", u.alloc_bytes /. float_of_int u.events);
      ("gc.minor_per_sim_s", float_of_int u.minor /. u.sim_s);
      ("gc.major_collections", float_of_int u.major) ]

let rep_json (r : M.rep) =
  Json.Obj
    [ ("traced", Json.Bool r.traced); ("wall_s", Json.Num r.wall_s);
      ("raw_wall_s", Json.Num r.raw_wall_s);
      ("sim_s", Json.Num r.sim_s); ("events", Json.Num (float_of_int r.events));
      ("digest", Json.Str r.digest);
      ("reports", Json.Num (float_of_int r.reports)) ]

(* Checks every run makes, as (name, passed). *)
let rep_checks (reps : M.rep list) =
  let first = List.hd reps in
  [ ("digest identical across reps and with tracing",
     List.for_all (fun (r : M.rep) -> r.digest = first.digest) reps);
    ("at least one response",
     List.for_all (fun (r : M.rep) -> r.responses_ms <> []) reps) ]

let names_check label expected metrics =
  let got = List.sort compare (List.map fst metrics) in
  let want =
    List.sort compare (List.map (fun (m : Manifest.metric) -> m.name) expected)
  in
  (label ^ " metrics match the manifest", got = want)

let run_cmd args =
  let get, flag = parse_opts args in
  let wl =
    match get "--workload" with
    | None ->
        die "run: --workload is required (%s)"
          (String.concat ", " (List.map (fun (w : W.t) -> w.name) W.all))
    | Some name -> (
        match W.find name with
        | Some w -> w
        | None -> die "run: unknown workload %s" name)
  in
  let seed = int_opt get "--seed" ~default:1 in
  let seconds = float_of_int (int_opt get "--seconds" ~default:10) in
  let traced = int_opt get "--trace" ~default:0 = 1 in
  let size = if flag "--smoke" then W.Smoke else W.Full in
  Printf.printf "farmbench %s seed=%d%s%s\n%!" wl.name seed
    (if traced then " traced" else "")
    (if size = W.Smoke then " smoke" else "");
  let reps, setup_s, setup_deploys =
    if traced then
      let order = if size = W.Smoke then [ false; true ] else [ false; true; false ] in
      (List.map (fun traced -> M.rep wl ~seed size ~traced) order, [], [])
    else begin
      (* the first batch runs before the set-ups, so the heap peak it
         leaves depends on the seed alone *)
      let start = Spans.now_ns () in
      let first = M.rep wl ~seed size ~traced:false in
      let builds =
        if size = W.Smoke then M.setups wl ~seed size ~min_builds:1 ~min_time:0.
        else M.setups wl ~seed size ~min_builds:9 ~min_time:setup_seconds
      in
      (* repeat the batch while another one still fits in [seconds] *)
      let rec loop acc =
        let n = List.length acc in
        let elapsed = Spans.seconds_since start in
        if elapsed *. (1. +. (1. /. float_of_int n)) <= seconds then
          loop (M.rep wl ~seed size ~traced:false :: acc)
        else List.rev acc
      in
      (loop [ first ], List.map fst builds, List.concat_map snd builds)
    end
  in
  let first = List.hd reps in
  List.iter
    (fun (r : M.rep) ->
      Printf.printf "  rep%s: %.3f s (%.3f s raw), %.2f sim s, %d events, digest %s\n"
        (if r.traced then " (traced)" else "")
        r.wall_s r.raw_wall_s r.sim_s r.events r.digest)
    reps;
  print_table first.table;
  if first.refused <> [] then
    Printf.printf "  refused deploys: %s\n" (String.concat ", " first.refused);
  let layers =
    if traced && not (flag "--no-layers") then
      Some (Layers.run ~min_time:0.1)
    else None
  in
  let metrics =
    if traced then per_layer reps @ Option.fold ~none:[] ~some:Layers.metrics layers
    else
      end_to_end reps ~setup_s
        ~deploy_ms:
          (setup_deploys @ List.concat_map (fun (r : M.rep) -> r.deploy_ms) reps)
  in
  let checks =
    rep_checks reps
    @
    match (traced, layers) with
    | true, None -> []
    | true, Some _ -> [ names_check "per-layer" Manifest.per_layer metrics ]
    | false, _ -> [ names_check "end-to-end" Manifest.end_to_end metrics ]
  in
  List.iter (fun (n, v) -> print_metric n v) metrics;
  List.iter
    (fun (n, ok) -> if not ok then Printf.printf "  CHECK FAILED: %s\n" n)
    checks;
  let correct = List.for_all snd checks in
  (* every batch replays the first (the digest check holds them equal), so
     the operations are those of one batch and depend on the seed alone,
     not on how many batches the host had time for *)
  let attempted = first.attempted and failed = first.failed in
  if flag "--detail" then
    print_endline
      ("farmbench-detail "
      ^ Json.to_string
          (Json.Obj
             [ ("workload", Json.Str wl.name); ("correct", Json.Bool correct);
               ("reps", Json.Arr (List.map rep_json reps));
               ("table", table_json first.table);
               ("metrics", Json.Obj (List.map (fun (n, v) -> (n, Json.Num v)) metrics));
               ("checks", checks_json checks);
               ("spans", Json.Arr (Spans.to_json ~pid:1)) ]))
  else if traced then
    Spans.write_chrome "farmbench_trace.json" (Spans.to_json ~pid:1);
  print_endline (result_line ~correct ~attempted ~failed metrics);
  exit (if correct then 0 else 1)

(* ------------------------------------------------------------------ *)
(* layers                                                              *)
(* ------------------------------------------------------------------ *)

let print_layers (results, ck_bytes) =
  Printf.printf "  %-48s %12s %8s %12s\n" "layer" "median" "IQR" "bytes/op";
  List.iter
    (fun ((t : Manifest.timed), (r : Layers.result)) ->
      let s = r.time in
      Printf.printf "  %-48s %9.4g %-2s %7.1f%% %12.0f\n" (Manifest.time_name t)
        s.median t.time_unit
        (100. *. (s.q3 -. s.q1) /. s.median)
        r.bytes.median)
    results;
  Printf.printf "  %-48s %9.0f B\n" "runtime.checkpoint.bytes_per_checkpoint"
    ck_bytes

let layers_cmd args =
  let get, flag = parse_opts args in
  let min_time =
    match get "--min-time" with
    | None -> 0.5
    | Some v -> (
        match float_of_string_opt v with
        | Some f -> f
        | None -> die "layers: bad --min-time %s" v)
  in
  let r = Layers.run ~min_time in
  print_layers r;
  if flag "--detail" then
    print_endline
      ("farmbench-detail "
      ^ Json.to_string
          (Json.Obj
             [ ("layers", Layers.to_json r);
               ("spans", Json.Arr (Spans.to_json ~pid:1)) ]))

(* ------------------------------------------------------------------ *)
(* all: every workload in fresh child processes                        *)
(* ------------------------------------------------------------------ *)

let detail_prefix = "farmbench-detail "

(* Run this executable with [args], one child at a time; echo its report,
   return its detail object and whether it exited 0. *)
let child args =
  Printf.printf "$ farmbench %s\n%!" (String.concat " " args);
  let ic =
    Unix.open_process_args_in Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
  in
  let detail = ref Json.Null and pl = String.length detail_prefix in
  (try
     while true do
       let line = input_line ic in
       if String.length line > pl && String.sub line 0 pl = detail_prefix then
         detail := Json.of_string (String.sub line pl (String.length line - pl))
       else if not (String.length line > 0 && line.[0] = '{') then
         print_endline line
     done
   with End_of_file -> ());
  let ok = Unix.close_process_in ic = Unix.WEXITED 0 in
  (!detail, ok)

let field j k = Option.value (Json.member k j) ~default:Json.Null
let num j k = Option.value (Json.to_num (field j k)) ~default:nan
let arr j k = match field j k with Json.Arr xs -> xs | _ -> []

let all_cmd args =
  let get, flag = parse_opts args in
  let seed = int_opt get "--seed" ~default:1 in
  let smoke = flag "--smoke" in
  let out = Option.value (get "--out") ~default:"farmbench.json" in
  let runs_per_workload = if smoke then 1 else 3 in
  let run_args (wl : W.t) ~trace =
    [ "run"; "--workload"; wl.name; "--seed"; string_of_int seed; "--seconds";
      (if smoke then "0" else "10"); "--trace"; string_of_int trace; "--detail" ]
    @ (if trace = 1 then [ "--no-layers" ] else [])
    @ if smoke then [ "--smoke" ] else []
  in
  let checks = ref [] in
  let check name ok =
    checks := (name, ok) :: !checks;
    if not ok then Printf.printf "CHECK FAILED: %s\n%!" name
  in
  (* every child's spans, one pid per child *)
  let spans = ref [] and pid = ref 0 in
  let keep_spans d =
    incr pid;
    let relabel = function
      | Json.Obj kvs ->
          Json.Obj
            (List.map
               (fun (k, v) ->
                 if k = "pid" then (k, Json.Num (float_of_int !pid)) else (k, v))
               kvs)
      | j -> j
    in
    spans := List.rev_append (List.map relabel (arr d "spans")) !spans
  in
  let workloads =
    List.map
      (fun (wl : W.t) ->
        let untraced =
          List.init runs_per_workload (fun _ -> child (run_args wl ~trace:0))
        in
        let traced, traced_ok = child (run_args wl ~trace:1) in
        let runs = untraced @ [ (traced, traced_ok) ] in
        List.iter (fun (d, _) -> keep_spans d) runs;
        check (wl.name ^ ": every run exited 0") (List.for_all snd runs);
        let reps = List.concat_map (fun (d, _) -> arr d "reps") runs in
        let digests = List.map (fun rp -> field rp "digest") reps in
        check
          (wl.name ^ ": digest identical across runs, reps and tracing")
          (digests <> [] && List.for_all (( = ) (List.hd digests)) digests);
        let e2e =
          List.map
            (fun (m : Manifest.metric) ->
              let vs =
                List.map (fun (d, _) -> num (field d "metrics") m.name) untraced
              in
              let s = Stats.summarize vs in
              ( m.name,
                Json.Obj
                  [ ("unit", Json.Str m.unit);
                    ("better", Json.Str (Manifest.better_string m.better));
                    ("bound", Json.Num m.bound); ("median", Json.Num s.median);
                    ("q1", Json.Num s.q1); ("q3", Json.Num s.q3);
                    ("runs", Json.Arr (List.map (fun v -> Json.Num v) vs)) ] ))
            Manifest.end_to_end
        in
        let walls traced =
          List.filter_map
            (fun rp ->
              if field rp "traced" = Json.Bool traced then
                Json.to_num (field rp "wall_s")
              else None)
            reps
        in
        let overhead =
          match walls true with
          | [ tw ] -> Stats.summarize (overheads ~traced_wall:tw (walls false))
          | _ -> Stats.summarize []
        in
        let per_layer =
          List.map
            (fun (m : Manifest.metric) ->
              if m.name = "sim.trace.overhead_pct" then
                (m.name, Stats.summary_json ~unit:"%" overhead)
              else (m.name, field (field traced "metrics") m.name))
            Manifest.counted
        in
        let table =
          match untraced with (d, _) :: _ -> field d "table" | [] -> Json.Null
        in
        Printf.printf "\n%s: %s\n" wl.name wl.why;
        List.iter
          (fun (name, j) ->
            Printf.printf "  %-22s %14.6g %-8s q1 %.6g  q3 %.6g\n" name (num j "median")
              (manifest_unit name) (num j "q1") (num j "q3"))
          e2e;
        Printf.printf "  %-22s %14.3g %-8s q1 %.3g  q3 %.3g\n" "sim.trace.overhead_pct"
          overhead.median "%" overhead.q1 overhead.q3;
        print_table
          (List.map
             (fun row ->
               ( (match field row "task" with Json.Str s -> s | _ -> "?"),
                 int_of_float (num row "answered"),
                 int_of_float (num row "missed") ))
             (match table with Json.Arr rows -> rows | _ -> []));
        print_newline ();
        ( wl.name,
          Json.Obj
            [ ("why", Json.Str wl.why);
              ("digest", match digests with d :: _ -> d | [] -> Json.Null);
              ("end_to_end", Json.Obj e2e); ("per_layer", Json.Obj per_layer);
              ("table", table); ("reps", Json.Arr reps) ] ))
      W.all
  in
  let ld, lok =
    child [ "layers"; "--detail"; "--min-time"; (if smoke then "0.005" else "0.5") ]
  in
  keep_spans ld;
  check "layers: exited 0" lok;
  let layers = field ld "layers" in
  check "layers: every layer metric present"
    (List.for_all
       (fun (m : Manifest.metric) -> Json.member m.name layers <> None)
       Manifest.layer_phase);
  (match get "--manifest" with
  | None -> ()
  | Some path ->
      let errs = Manifest.check_benchmark_json ~workloads:manifest_workloads path in
      List.iter print_endline errs;
      check "BENCHMARK.json lists the metrics farmbench emits" (errs = []));
  let correct = List.for_all snd !checks in
  let doc =
    Json.Obj
      [ ("benchmark", Json.Str "farmbench"); ("seed", Json.Num (float_of_int seed));
        ("smoke", Json.Bool smoke);
        ("runs_per_workload", Json.Num (float_of_int runs_per_workload));
        ("workloads", Json.Obj workloads); ("layers", layers);
        ("checks", checks_json (List.rev !checks)); ("correct", Json.Bool correct) ]
  in
  let oc = open_out out in
  output_string oc (Json.to_string ~indent:2 doc);
  output_char oc '\n';
  close_out oc;
  Spans.write_chrome
    (Filename.concat (Filename.dirname out) "farmbench_trace.json")
    (List.rev !spans);
  Printf.printf "wrote %s: %s\n" out
    (if correct then "all checks passed" else "CHECKS FAILED");
  exit (if correct then 0 else 1)

(* ------------------------------------------------------------------ *)
(* compare                                                             *)
(* ------------------------------------------------------------------ *)

let load path =
  let ic = try open_in_bin path with Sys_error m -> die "%s" m in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  try Json.of_string s with Json.Parse_error m -> die "%s: %s" path m

let obj j k = match field j k with Json.Obj kvs -> kvs | _ -> []

(* A metric is unresolved when either side's run-to-run spread is wider
   than its bound; it regressed when B's median is worse than A's by more
   than the bound. *)
let compare_cmd a b =
  let ja = load a and jb = load b in
  let regressed = ref false in
  let delta name va vb =
    let value v = match v with Json.Num x -> x | j -> num j "median" in
    let x = value va and y = value vb in
    if x <> y then
      Printf.printf "  %-48s %12.6g -> %-12.6g (%+.1f%%)\n" name x y
        (100. *. (y -. x) /. Float.abs x)
  in
  List.iter
    (fun (w, wb) ->
      match List.assoc_opt w (obj ja "workloads") with
      | None -> Printf.printf "%s: only in %s\n" w b
      | Some wa ->
          Printf.printf "%s\n  %-22s %12s %12s %9s %6s  %s\n" w "metric" "A" "B"
            "worse by" "bound" "verdict";
          List.iter
            (fun (m : Manifest.metric) ->
              match (List.assoc_opt m.name (obj wa "end_to_end"),
                     List.assoc_opt m.name (obj wb "end_to_end")) with
              | Some ma, Some mb ->
                  let x = num ma "median" and y = num mb "median" in
                  let worse =
                    (match m.better with Lower -> y -. x | Higher -> x -. y)
                    /. Float.abs x
                  in
                  let spread j =
                    (num j "q3" -. num j "q1") /. Float.abs (num j "median")
                  in
                  let verdict =
                    if Float.max (spread ma) (spread mb) > m.bound then "unresolved"
                    else if worse > m.bound then begin
                      regressed := true;
                      "REGRESSED"
                    end
                    else "ok"
                  in
                  Printf.printf "  %-22s %12.6g %12.6g %8.1f%% %5.0f%%  %s\n" m.name x y
                    (100. *. worse) (100. *. m.bound) verdict
              | _ -> Printf.printf "  %-22s missing\n" m.name)
            Manifest.end_to_end;
          List.iter
            (fun (name, vb) ->
              Option.iter (fun va -> delta name va vb)
                (List.assoc_opt name (obj wa "per_layer")))
            (obj wb "per_layer"))
    (obj jb "workloads");
  print_endline "layers";
  List.iter
    (fun (name, vb) ->
      Option.iter (fun va -> delta name va vb) (List.assoc_opt name (obj ja "layers")))
    (obj jb "layers");
  exit (if !regressed then 1 else 0)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: args -> run_cmd args
  | "all" :: args -> all_cmd args
  | "layers" :: args -> layers_cmd args
  | [ "compare"; a; b ] -> compare_cmd a b
  | [ "manifest" ] ->
      print_endline
        (Json.to_string ~indent:2
           (Json.Obj (Manifest.to_json ~workloads:manifest_workloads)))
  | _ ->
      prerr_endline
        "usage: farmbench run --workload W --seed N --seconds S --trace 0|1\n\
        \       farmbench all [--seed N] [--out FILE] [--smoke] [--manifest FILE]\n\
        \       farmbench layers [--min-time S]\n\
        \       farmbench compare A.json B.json\n\
        \       farmbench manifest";
      exit 2
