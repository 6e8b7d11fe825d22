(* Fig. 6: switch CPU load (and polling accuracy) as the number of
   co-located seeds grows, for the lightweight HH task and the
   CPU-intensive ML (SVR) task.

   (a) HH @ 1 ms   (b) HH @ 10 ms
   (c) ML @ 1 ms, 1 iteration  (d) ML @ 10 ms, 10 iterations

   Seeds run as threads of the soil with aggregation on (the production
   configuration); CPU load is offered busy time over the window (can
   exceed 100% on the 4-core management CPU), accuracy = the fraction of
   offered work the CPU can actually absorb. *)

open Farm
module Engine = Sim.Engine

let sim_seconds = 2.

let deploy_n_seeds ~entry ~n =
  let engine = Engine.create ~seed:4 () in
  let sw =
    Net.Switch_model.create ~caps:Bench_common.stress_caps ~id:0 ~ports:16 ()
  in
  let soil = Runtime.Soil.create engine sw in
  (* some traffic so polls return moving counters *)
  Net.Switch_model.add_flow sw ~time:0. ~flow_id:0
    ~tuple:{ Net.Flow.src = Net.Ipaddr.of_string "10.1.1.1";
             dst = Net.Ipaddr.of_string "10.2.1.1"; sport = 1; dport = 2;
             proto = Net.Flow.Tcp }
    ~rate:50_000. ~egress:1 ();
  let program =
    Almanac.Typecheck.check
      ~extra:entry.Tasks.Task_common.extra_sigs
      (Almanac.Parser.program entry.Tasks.Task_common.source)
  in
  let machine = (List.hd program.machines).mname in
  let m = List.hd program.machines in
  let externals =
    Option.value
      (List.assoc_opt machine entry.Tasks.Task_common.externals)
      ~default:[]
  in
  let bindings name =
    List.assoc_opt name externals
  in
  let polls =
    match Almanac.Analysis.polls ~bindings m with
    | Ok p -> p
    | Error e -> failwith e
  in
  let res = Array.make Almanac.Analysis.n_resources 100. in
  let plan = Almanac.Engine.prepare ~engine:`Compiled ~program ~machine in
  for i = 1 to n do
    ignore
      (Runtime.Seed_exec.deploy ~soil ~plan ~externals
         ~builtins:entry.Tasks.Task_common.builtins ~resources:res ~polls
         ~send:(fun _ _ _ -> ())
         ~seed_id:i ())
  done;
  Engine.run ~until:sim_seconds engine;
  let load = Runtime.Soil.cpu_load soil ~window:sim_seconds in
  let acc = Runtime.Soil.cpu_accuracy soil ~window:sim_seconds in
  (load, acc)

let series ?(partition = 1) title entry counts =
  Bench_common.subsection title;
  let rows =
    List.map
      (fun n ->
        (* Fig. 6d partitions the task: n logical seeds run as n/partition
           physical seeds, each doing [partition] iterations per poll *)
        let load, acc = deploy_n_seeds ~entry ~n:(n / partition) in
        [ string_of_int n;
          Printf.sprintf "%.0f%%" (100. *. load);
          Printf.sprintf "%.0f%%" (100. *. acc) ])
      counts
  in
  Bench_common.table [ "Seeds"; "CPU load"; "Polling accuracy" ] rows

let run () =
  Bench_common.section
    "Fig. 6: CPU load of FARM for HH and ML tasks vs co-located seeds";
  series "(a) HH task, 1 ms accuracy"
    (Tasks.Hh.hh_at ~accuracy:0.001)
    [ 20; 40; 60; 80; 100 ];
  series "(b) HH task, 10 ms accuracy"
    (Tasks.Hh.hh_at ~accuracy:0.01)
    [ 20; 40; 60; 80; 100 ];
  series "(c) ML task, 1 ms accuracy, 1 iteration"
    (Tasks.Infra_tasks.ml_task ~iterations:1 ~accuracy:0.001)
    [ 10; 20; 30; 40; 50 ];
  series ~partition:10 "(d) ML task, 10 ms accuracy, 10 iterations (n/10 partitions)"
    (Tasks.Infra_tasks.ml_task ~iterations:10 ~accuracy:0.01)
    [ 50; 100; 150; 200; 250 ];
  Printf.printf
    "\n(paper: HH scales to >100 seeds; ML @1ms overloads the CPU around 50 \
     seeds (~350%%), partitioned ML @10ms scales to 250 seeds)\n%!"
