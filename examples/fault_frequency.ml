(* Fault-frequency study on a medium BT instance (the Figure 5 experiment
   at laptop scale).

   Run with: dune exec examples/fault_frequency.exe

   Sweeps the fault injection period on BT-25 class A and prints the
   paper-style table: mean execution time of terminated runs and the
   percentage of non-terminating runs. Watch the execution time grow and
   the runs stop terminating as faults come faster than checkpoints. *)

module Harness = Experiments.Harness

let () =
  let n_machines = 29 in
  let aggs =
    List.map
      (fun period ->
        let scenario =
          Option.map (fun period -> Fail_lang.Paper_scenarios.frequency ~n_machines ~period) period
        in
        Harness.cell
          ~tag:(match period with None -> "no faults" | Some p -> Printf.sprintf "every %d sec" p)
          ~reps:3 ~base_seed:42
          (fun ~seed ->
            Harness.run_bt ~klass:Workload.Bt_model.A ~n_ranks:25 ~n_machines ~scenario ~seed ()))
      [ None; Some 60; Some 50; Some 40; Some 35; Some 30 ]
    |> Harness.campaign
    |> List.map (fun (label, results) -> Harness.aggregate ~label results)
  in
  print_string
    (Harness.render_table ~title:"Fault frequency on BT-25 class A (3 runs each)"
       aggs);
  print_newline ();
  print_endline
    "Reading the table: '%nonterm' runs hit the 1500 s experiment timeout\n\
     still rolling back — the failure frequency leaves no room to reach\n\
     the next checkpoint wave. 'chk' asserts that every terminated run\n\
     computed exactly the fault-free checksum, whatever faults occurred."
