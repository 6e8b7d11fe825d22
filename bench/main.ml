(* FARM evaluation harness: regenerates every table and figure of the
   paper's §VI.  Run with no argument for the full suite, or name one or
   more experiments: table1 table4 table5 fig4 fig5 fig6 fig7 fig8 fig9
   fig10 ablation. *)

let experiments =
  [ ("table1", Exp_table1.run);
    ("table4", Exp_table4.run);
    ("fig4", Exp_fig4.run);
    ("fig5", Exp_fig5.run);
    ("fig6", Exp_fig6.run);
    ("fig7", Exp_fig7.run);
    ("fig8", Exp_fig8.run);
    ("fig9", Exp_fig9.run);
    ("fig10", Exp_fig10.run);
    ("table5", Exp_table5.run);
    ("ablation", Exp_ablation.run) ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | [] ->
      List.iter (fun (_, run) -> run ()) experiments;
      print_newline ()
  | names ->
      List.iter
        (fun name ->
          match List.assoc_opt name experiments with
          | Some run -> run ()
          | None ->
              Printf.eprintf "unknown experiment %S; available: %s\n" name
                (String.concat " " (List.map fst experiments));
              exit 1)
        names
