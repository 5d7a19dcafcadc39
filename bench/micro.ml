(* The micro suite: Bechamel micro-benchmarks, one scaled-down
   experiment cycle per table/figure of the paper (the cost of the
   machinery that regenerates it), plus the hot substrate paths (event
   queue, mailboxes, FAIL front end). `failmpi_experiments all` is what
   regenerates the tables and figures themselves. *)

open Bechamel

let cycle name ?protocol ?scenario ~n_compute ~seed () =
  Test.make ~name
    (Staged.stage (fun () ->
         ignore (Fixture.stencil ?protocol ?scenario ~n_compute ~seed ())))

let paper f = f ~n_machines:8 ~period:10
let replication = Mpivcl.Config.Replication { degree = 2 }
let fig10_source = Fail_lang.Paper_scenarios.state_synchronized ~n_machines:53 ~period:50

let tests =
  [
    ( "fail_lang",
      Test.make ~name:"table1:tool-comparison"
        (Staged.stage (fun () -> ignore (Fail_lang.Tool_comparison.render ()))) );
    ( "core",
      cycle "fig5:frequency-run" ~n_compute:8 ~seed:1L
        ~scenario:(paper Fail_lang.Paper_scenarios.frequency) () );
    ("core", cycle "fig6:scale-run" ~n_compute:8 ~seed:2L ());
    ( "core",
      cycle "fig7:simultaneous-run" ~n_compute:8 ~seed:3L
        ~scenario:(paper (Fail_lang.Paper_scenarios.simultaneous ~count:2)) () );
    ( "core",
      cycle "fig9:synchronized-run" ~n_compute:8 ~seed:4L
        ~scenario:(paper Fail_lang.Paper_scenarios.synchronized) () );
    ( "core",
      cycle "fig11:state-sync-run" ~n_compute:8 ~seed:5L
        ~scenario:(paper Fail_lang.Paper_scenarios.state_synchronized) () );
    ("core", cycle "families:replication-run" ~protocol:replication ~n_compute:10 ~seed:6L ());
    ( "core",
      cycle "families:replication-failover-run" ~protocol:replication ~n_compute:10 ~seed:7L
        ~scenario:(Fail_lang.Paper_scenarios.frequency ~n_machines:10 ~period:10) () );
    ( "simkern",
      Test.make ~name:"micro:engine-1k-events"
        (Staged.stage (fun () ->
             let open Simkern in
             let eng = Engine.create () in
             for i = 1 to 1000 do
               ignore (Engine.schedule eng ~delay:(float_of_int i *. 0.001) (fun () -> ()))
             done;
             ignore (Engine.run eng))) );
    ( "simkern",
      Test.make ~name:"micro:mailbox-1k-msgs"
        (Staged.stage (fun () ->
             let open Simkern in
             let eng = Engine.create () in
             let mb = Mailbox.create () in
             ignore
               (Proc.spawn eng (fun () ->
                    for _ = 1 to 1000 do
                      ignore (Mailbox.recv mb)
                    done));
             ignore
               (Proc.spawn eng (fun () ->
                    for i = 1 to 1000 do
                      Mailbox.send mb i
                    done));
             ignore (Engine.run eng))) );
    ( "fail_lang",
      Test.make ~name:"micro:parse-fig10"
        (Staged.stage (fun () -> ignore (Fail_lang.Parser.parse fig10_source))) );
    ( "fail_lang",
      Test.make ~name:"micro:compile-fig10"
        (Staged.stage (fun () ->
             match Fail_lang.Compile.compile_source fig10_source with
             | Ok _ -> ()
             | Error msg -> failwith msg)) );
    ( "workload",
      Test.make ~name:"micro:bt49-reference-checksum"
        (Staged.stage (fun () ->
             ignore (Workload.Bt_model.reference_checksum Workload.Bt_model.B ~n_ranks:49))) );
    ( "simkern",
      Test.make ~name:"micro:rng-1k-draws"
        (Staged.stage (fun () ->
             let rng = Simkern.Rng.create 1L in
             for _ = 1 to 1000 do
               ignore (Simkern.Rng.int rng 53)
             done)) );
  ]

let run ~smoke:_ =
  List.concat_map
    (fun (layer, test) ->
      Printf.printf "micro: %s...\n%!" (Test.name test);
      Fixture.fit_records ~layer (Test.name test) (Fixture.ols test))
    tests
