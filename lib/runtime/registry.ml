module Value = Farm_almanac.Value
module Model = Farm_placement.Model
module Int_map = Map.Make (Int)

type task = {
  task_id : int;
  name : string;
  builtins : (string * (Value.t list -> Value.t)) list;
  adaptive : string list;
  profile : Farm_placement.Conflict.profile;
  mutable harvester : Harvester.t option;
  mutable placed : bool;
  mutable regs : reg list;  (* registered seeds, in seed-id order *)
}

and reg = {
  r_spec : Model.seed_spec;
  r_task : task;
  r_machine : string;
  r_plan : Farm_almanac.Engine.plan Lazy.t;
  r_polls : Farm_almanac.Analysis.poll_summary list;
  r_externals : (string * Value.t) list;
  mutable r_exec : Seed_exec.t option;
  mutable r_migrating : bool;
  mutable r_epoch : int;
  r_ck : Healing.ck;
}

type t = {
  mutable seeds : reg Int_map.t;  (* by seed id *)
  mutable tasks : task Int_map.t;  (* by task id *)
  mutable next_seed : int;
  mutable next_task : int;
}

let create () =
  { seeds = Int_map.empty; tasks = Int_map.empty; next_seed = 0;
    next_task = 0 }

let fresh_seed_id t =
  let id = t.next_seed in
  t.next_seed <- id + 1;
  id

let fresh_task_id t =
  let id = t.next_task in
  t.next_task <- id + 1;
  id

let register t task regs =
  task.regs <- regs;
  t.tasks <- Int_map.add task.task_id task t.tasks;
  t.seeds <-
    List.fold_left (fun m r -> Int_map.add r.r_spec.seed_id r m) t.seeds regs

let unregister t task =
  t.seeds <-
    List.fold_left
      (fun m r -> Int_map.remove r.r_spec.seed_id m)
      t.seeds task.regs;
  t.tasks <- Int_map.remove task.task_id t.tasks;
  task.regs <- []

let find t seed_id = Int_map.find_opt seed_id t.seeds
let mem t seed_id = Int_map.mem seed_id t.seeds
let iter_seeds t f = Int_map.iter (fun _ r -> f r) t.seeds

let iter_on t node f =
  iter_seeds t (fun r ->
      match r.r_exec with
      | Some e when Seed_exec.node e = node -> f r e
      | Some _ | None -> ())

let tasks t = List.map snd (Int_map.bindings t.tasks)

let placement_seeds t ~failed =
  Int_map.fold
    (fun _ r acc ->
      let s = r.r_spec in
      if not (List.exists failed s.candidates) then s :: acc
      else
        match List.filter (fun n -> not (failed n)) s.candidates with
        | [] -> acc
        | candidates -> { s with candidates } :: acc)
    t.seeds []
  |> List.rev

let digest b t =
  Int_map.iter
    (fun _ task ->
      Printf.bprintf b "task %d %s placed=%b" task.task_id task.name
        task.placed;
      (match task.harvester with
      | None -> ()
      | Some h ->
          Printf.bprintf b
            " recv=%d stale=%d dup=%d offered=%d shed=%d prov=[%s]"
            (Harvester.received_count h) (Harvester.stale_dropped h)
            (Harvester.dup_dropped h) (Harvester.offered_count h)
            (Harvester.shed_count h)
            (String.concat ";"
               (List.map
                  (fun (at, (p : Harvester.provenance)) ->
                    Printf.sprintf "%h:%d:%d:%d" at p.p_seed p.p_epoch p.p_seq)
                  (Harvester.accepted_provenance h)));
          match Harvester.window_admits h with
          | [] -> ()
          | admits ->
              Printf.bprintf b " admits=[%s]"
                (String.concat ";"
                   (List.map (fun (s, n) -> Printf.sprintf "%d:%d" s n)
                      admits)));
      Buffer.add_char b '\n')
    t.tasks;
  Int_map.iter
    (fun seed r ->
      Printf.bprintf b "seed %d task=%d epoch=%d migrating=%b" seed
        r.r_task.task_id r.r_epoch r.r_migrating;
      (match r.r_exec with
      | None -> ()
      | Some e ->
          let vars, state = Seed_exec.snapshot e in
          Printf.bprintf b
            " node=%d state=%s transitions=%d degradation=%h drops=%d %s"
            (Seed_exec.node e) (Seed_exec.state e) (Seed_exec.transitions e)
            (Seed_exec.degradation e) (Seed_exec.poll_drops e)
            (Checkpoint.encode
               { Checkpoint.ck_seed = seed; ck_epoch = Seed_exec.epoch e;
                 ck_seq = 0; ck_full = true; ck_vars = vars; ck_removed = [];
                 ck_state = state }));
      Healing.digest_store b ~seed r.r_ck;
      Buffer.add_char b '\n')
    t.seeds
