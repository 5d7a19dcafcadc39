(* golden_capture: print the reference behaviour of every protocol
   backend for the fixed-seed golden-equivalence tests
   (test/test_backend.ml). Run it on a known-good tree and paste the
   output into the test's expectation table whenever the goldens must be
   re-captured on purpose (e.g. an intentional protocol change):

     dune exec devtools/golden_capture.exe *)

let small_params =
  { Workload.Stencil.iterations = 60; compute_time = 0.5; msg_bytes = 5_000; jitter = 0.0 }

let spec ~protocol ~n_ranks ~n_machines ~scenario =
  let app = Workload.Stencil.app small_params ~n_ranks in
  let cfg =
    {
      (Mpivcl.Config.default ~n_ranks) with
      Mpivcl.Config.protocol;
      wave_interval = 10.0;
      term_straggler_prob = 0.0;
    }
  in
  {
    (Failmpi.Run.default_spec ~app ~cfg ~n_compute:n_machines ~state_bytes:1_000_000) with
    Failmpi.Run.scenario = Some scenario;
    timeout = 400.0;
  }

let cases =
  let eight_machines protocol =
    spec ~protocol ~n_ranks:4 ~n_machines:8
      ~scenario:(Fail_lang.Paper_scenarios.frequency ~n_machines:8 ~period:15)
  in
  [
    ("vcl", eight_machines Mpivcl.Config.Non_blocking);
    ("blocking", eight_machines Mpivcl.Config.Blocking);
    ("v2", eight_machines Mpivcl.Config.Sender_logging);
    ( "replication",
      spec
        ~protocol:(Mpivcl.Config.Replication { degree = 2 })
        ~n_ranks:4 ~n_machines:10
        ~scenario:(Fail_lang.Paper_scenarios.frequency ~n_machines:10 ~period:15) );
    ("ulfm", eight_machines (Mpivcl.Config.Ulfm { spares = 1 }));
  ]

let () =
  List.iter
    (fun (name, spec) ->
      List.iter
        (fun seed ->
          let r = Failmpi.Run.execute { spec with Failmpi.Run.seed } in
          let time =
            match r.Failmpi.Run.outcome with
            | Failmpi.Run.Completed t -> Printf.sprintf "%.6f" t
            | Failmpi.Run.Degraded { at; _ } -> Printf.sprintf "%.6f" at
            | Failmpi.Run.Aborted _ | Failmpi.Run.Ckpt_lost | Failmpi.Run.Non_terminating
            | Failmpi.Run.Buggy | Failmpi.Run.Net_hung ->
                "-"
          in
          Printf.printf "%s seed=%Ld outcome=%s time=%s faults=%d checksums=[%s]\n%!" name
            seed
            (Failmpi.Run.outcome_name r.Failmpi.Run.outcome)
            time r.Failmpi.Run.injected_faults
            (String.concat ";"
               (List.map
                  (fun (rank, v) -> Printf.sprintf "%d:%d" rank v)
                  r.Failmpi.Run.checksums)))
        [ 1L; 7L ])
    cases
