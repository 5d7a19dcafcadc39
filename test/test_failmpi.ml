(* Tests for the public Failmpi API: spec construction, outcome
   classification (completed / non-terminating / buggy), checksum
   validation, and end-to-end paper-scenario behaviour on small
   clusters. *)

let check = Alcotest.check
let check_bool = check Alcotest.bool
let check_int = check Alcotest.int

let small_params = { Workload.Stencil.iterations = 60; compute_time = 0.5; msg_bytes = 5_000; jitter = 0.0 }

let small_spec ?(n_ranks = 4) ?(n_machines = 8) ?scenario ?(buggy = true) ?(timeout = 400.0) () =
  let app = Workload.Stencil.app small_params ~n_ranks in
  let cfg =
    {
      (Mpivcl.Config.default ~n_ranks) with
      Mpivcl.Config.wave_interval = 10.0;
      dispatcher_buggy = buggy;
      term_straggler_prob = 0.0;
    }
  in
  {
    (Failmpi.Run.default_spec ~app ~cfg ~n_compute:n_machines ~state_bytes:1_000_000) with
    Failmpi.Run.scenario;
    timeout;
  }

let expected = Workload.Stencil.reference_checksum small_params ~n_ranks:4

let test_no_faults_completes () =
  let r = Failmpi.Run.execute ~expected_checksum:expected (small_spec ()) in
  (match r.Failmpi.Run.outcome with
  | Failmpi.Run.Completed t -> check_bool "plausible time" true (t > 29.0 && t < 45.0)
  | _ -> Alcotest.fail "expected completion");
  check_bool "checksums ok" true (r.Failmpi.Run.checksum_ok = Some true);
  check_bool "waves committed" true ((Failmpi.Run.committed_waves r) >= 1);
  check_int "no faults" 0 r.Failmpi.Run.injected_faults;
  check_int "no recoveries" 0 (Failmpi.Run.recoveries r)

let test_frequency_scenario_recovers () =
  let scenario = Fail_lang.Paper_scenarios.frequency ~n_machines:8 ~period:15 in
  let r = Failmpi.Run.execute ~expected_checksum:expected (small_spec ~scenario ()) in
  check_bool "completed" true
    (match r.Failmpi.Run.outcome with Failmpi.Run.Completed _ -> true | _ -> false);
  check_bool "faults injected" true (r.Failmpi.Run.injected_faults >= 1);
  check_bool "recovered" true ((Failmpi.Run.recoveries r) >= 1);
  check_bool "checksums still ok" true (r.Failmpi.Run.checksum_ok = Some true)

let test_state_sync_is_buggy () =
  (* Figure 10/11 on a small cluster: the historical dispatcher must
     freeze; classification = Buggy. *)
  let scenario = Fail_lang.Paper_scenarios.state_synchronized ~n_machines:8 ~period:15 in
  let r = Failmpi.Run.execute (small_spec ~scenario ()) in
  check_bool "buggy" true (r.Failmpi.Run.outcome = Failmpi.Run.Buggy);
  check_bool "confused" true r.Failmpi.Run.metrics.Failmpi.Backend.Metrics.confused;
  check_int "two faults" 2 r.Failmpi.Run.injected_faults

let test_state_sync_fixed_dispatcher_survives () =
  let scenario = Fail_lang.Paper_scenarios.state_synchronized ~n_machines:8 ~period:15 in
  let r =
    Failmpi.Run.execute ~expected_checksum:expected (small_spec ~scenario ~buggy:false ())
  in
  check_bool "completed" true
    (match r.Failmpi.Run.outcome with Failmpi.Run.Completed _ -> true | _ -> false);
  check_bool "not confused" false r.Failmpi.Run.metrics.Failmpi.Backend.Metrics.confused;
  check_bool "checksums ok" true (r.Failmpi.Run.checksum_ok = Some true)

let test_overwhelming_faults_non_terminating () =
  (* Faults faster than any wave can commit: rollback/crash cycle. *)
  let scenario = Fail_lang.Paper_scenarios.frequency ~n_machines:8 ~period:6 in
  let r = Failmpi.Run.execute (small_spec ~scenario ~timeout:300.0 ()) in
  check_bool "non-terminating" true (r.Failmpi.Run.outcome = Failmpi.Run.Non_terminating);
  check_bool "many faults" true (r.Failmpi.Run.injected_faults > 10)

let test_v2_survives_overwhelming_faults () =
  (* Same fault rate as [test_overwhelming_faults_non_terminating], but
     under sender-based message logging: only the failed rank restarts
     from its own recent checkpoint, so the run completes — the
     cross-protocol contrast of the last ablation table. *)
  let scenario = Fail_lang.Paper_scenarios.frequency ~n_machines:8 ~period:6 in
  let spec = small_spec ~scenario ~timeout:600.0 () in
  let spec =
    {
      spec with
      Failmpi.Run.cfg =
        { spec.Failmpi.Run.cfg with Mpivcl.Config.protocol = Mpivcl.Config.Sender_logging };
    }
  in
  let r = Failmpi.Run.execute ~expected_checksum:expected spec in
  check_bool "completed" true
    (match r.Failmpi.Run.outcome with Failmpi.Run.Completed _ -> true | _ -> false);
  check_bool "many faults survived" true (r.Failmpi.Run.injected_faults > 5);
  check_bool "checksums ok" true (r.Failmpi.Run.checksum_ok = Some true)

let test_checksum_mismatch_detected () =
  let r = Failmpi.Run.execute ~expected_checksum:12345 (small_spec ()) in
  check_bool "mismatch flagged" true (r.Failmpi.Run.checksum_ok = Some false)

let test_scenario_error_raises () =
  let spec = small_spec ~scenario:"Daemon Broken {" () in
  try
    ignore (Failmpi.Run.execute spec);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument msg ->
    check_bool "mentions scenario error" true
      (try
         ignore (Str.search_forward (Str.regexp_string "scenario error") msg 0);
         true
       with Not_found -> false)

let test_outcome_names () =
  check Alcotest.string "completed" "completed"
    (Failmpi.Run.outcome_name (Failmpi.Run.Completed 1.0));
  check Alcotest.string "non-terminating" "non-terminating"
    (Failmpi.Run.outcome_name Failmpi.Run.Non_terminating);
  check Alcotest.string "buggy" "buggy" (Failmpi.Run.outcome_name Failmpi.Run.Buggy)

let test_run_validation () =
  (* Absurd inputs are rejected up front with a clear message instead of
     crashing somewhere inside deployment. *)
  let spec = small_spec () in
  Alcotest.check_raises "zero ranks"
    (Invalid_argument "Run.execute: cfg.n_ranks must be positive (got 0)")
    (fun () ->
      ignore
        (Failmpi.Run.execute
           {
             spec with
             Failmpi.Run.cfg = { spec.Failmpi.Run.cfg with Mpivcl.Config.n_ranks = 0 };
           }));
  Alcotest.check_raises "more ranks than compute hosts"
    (Invalid_argument
       "Run.execute: n_compute (3) cannot seat 4 ranks — need at least one compute \
        host per rank")
    (fun () -> ignore (Failmpi.Run.execute { spec with Failmpi.Run.n_compute = 3 }));
  Alcotest.check_raises "three storage replicas"
    (Invalid_argument "Run.execute: cfg.ckpt_replicas must be 1 or 2 (got 3)")
    (fun () ->
      ignore
        (Failmpi.Run.execute
           {
             spec with
             Failmpi.Run.cfg = { spec.Failmpi.Run.cfg with Mpivcl.Config.ckpt_replicas = 3 };
           }));
  Alcotest.check_raises "zero regions"
    (Invalid_argument "Run.execute: regions must be >= 1 (got 0)")
    (fun () -> ignore (Failmpi.Run.execute { spec with Failmpi.Run.regions = Some 0 }))

let test_determinism () =
  (* The whole experiment is a pure function of the seed. *)
  let scenario = Fail_lang.Paper_scenarios.frequency ~n_machines:8 ~period:15 in
  let run seed =
    let r =
      Failmpi.Run.execute { (small_spec ~scenario ()) with Failmpi.Run.seed }
    in
    ( Failmpi.Run.outcome_name r.Failmpi.Run.outcome,
      r.Failmpi.Run.injected_faults,
      (Failmpi.Run.recoveries r),
      Simkern.Trace.length r.Failmpi.Run.trace )
  in
  check_bool "same seed same run" true (run 42L = run 42L);
  let a = run 42L and b = run 43L in
  let _, _, _, la = a and _, _, _, lb = b in
  check_bool "different seeds differ" true (la <> lb || a <> b)

(* ------------------------------------------------------------------ *)
(* Experiments harness *)

let test_stats () =
  check_bool "mean" true (Experiments.Stats.mean [ 1.0; 2.0; 3.0 ] = Some 2.0);
  check_bool "mean empty" true (Experiments.Stats.mean [] = None);
  (match Experiments.Stats.stddev [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ] with
  | Some s -> check (Alcotest.float 1e-9) "stddev" 2.138089935299395 s
  | None -> Alcotest.fail "stddev");
  check_bool "stddev singleton" true (Experiments.Stats.stddev [ 1.0 ] = None);
  check (Alcotest.float 1e-9) "percent" 25.0 (Experiments.Stats.percent ~total:8 2);
  check (Alcotest.float 1e-9) "percent zero total" 0.0 (Experiments.Stats.percent ~total:0 5)

let test_aggregate () =
  let mk outcome =
    {
      Failmpi.Run.outcome;
      injected_faults = 2;
      metrics =
        {
          Failmpi.Backend.Metrics.zero with
          Failmpi.Backend.Metrics.recoveries = 1;
          committed_waves = 3;
          confused = (outcome = Failmpi.Run.Buggy);
        };
      checksums = [];
      checksum_ok = None;
      trace = Simkern.Trace.create ();
    }
  in
  let agg =
    Experiments.Harness.aggregate ~label:"x"
      [
        mk (Failmpi.Run.Completed 100.0);
        mk (Failmpi.Run.Completed 200.0);
        mk Failmpi.Run.Non_terminating;
        mk Failmpi.Run.Buggy;
      ]
  in
  check_int "runs" 4 agg.Experiments.Harness.runs;
  check_int "completed" 2 agg.Experiments.Harness.completed;
  check_bool "mean time" true (agg.Experiments.Harness.mean_time = Some 150.0);
  check (Alcotest.float 1e-9) "pct nonterm" 25.0 agg.Experiments.Harness.pct_non_terminating;
  check (Alcotest.float 1e-9) "pct buggy" 25.0 agg.Experiments.Harness.pct_buggy;
  check_int "no checksum failures" 0 agg.Experiments.Harness.checksum_failures

let test_render_table () =
  let agg =
    Experiments.Harness.aggregate ~label:"some-config"
      [
        {
          Failmpi.Run.outcome = Failmpi.Run.Completed 123.0;
          injected_faults = 0;
          metrics =
            {
              Failmpi.Backend.Metrics.zero with
              Failmpi.Backend.Metrics.committed_waves = 1;
            };
          checksums = [];
          checksum_ok = Some true;
          trace = Simkern.Trace.create ();
        };
      ]
  in
  let table = Experiments.Harness.render_table ~title:"T" [ agg ] in
  check_bool "has label" true
    (try
       ignore (Str.search_forward (Str.regexp_string "some-config") table 0);
       true
     with Not_found -> false);
  check_bool "has time" true
    (try
       ignore (Str.search_forward (Str.regexp_string "123") table 0);
       true
     with Not_found -> false)

let test_machines_for () =
  check_int "paper allocation" 53 (Experiments.Harness.machines_for 49);
  check_int "bt-25" 29 (Experiments.Harness.machines_for 25);
  Alcotest.check_raises "zero ranks"
    (Invalid_argument "Harness.machines_for: n_ranks must be positive (got 0)")
    (fun () -> ignore (Experiments.Harness.machines_for 0));
  Alcotest.check_raises "negative ranks"
    (Invalid_argument "Harness.machines_for: n_ranks must be positive (got -3)")
    (fun () -> ignore (Experiments.Harness.machines_for (-3)))

(* [replicate] may run its seeds on several worker domains, so the order
   of the calls is not fixed; each result carries its seed, and the
   results must come back in seed order, one call per seed. *)
let test_replicate_seeds () =
  let calls = Atomic.make 0 in
  let results =
    Experiments.Harness.replicate ~reps:3 ~base_seed:10 (fun ~seed ->
        Atomic.incr calls;
        {
          Failmpi.Run.outcome = Failmpi.Run.Completed 1.0;
          injected_faults = Int64.to_int seed;
          metrics = Failmpi.Backend.Metrics.zero;
          checksums = [];
          checksum_ok = None;
          trace = Simkern.Trace.create ();
        })
  in
  check_bool "sequential seeds" true
    (List.map (fun r -> r.Failmpi.Run.injected_faults) results = [ 10; 11; 12 ]);
  check_int "one call per seed" 3 (Atomic.get calls)

let test_trace_analysis () =
  let scenario = Fail_lang.Paper_scenarios.frequency ~n_machines:8 ~period:15 in
  let r = Failmpi.Run.execute (small_spec ~scenario ()) in
  let s = Experiments.Trace_analysis.summarize r.Failmpi.Run.trace in
  check_int "fault count matches" r.Failmpi.Run.injected_faults
    (List.length s.Experiments.Trace_analysis.fault_times);
  check_int "recovery count matches" (Failmpi.Run.recoveries r)
    (List.length s.Experiments.Trace_analysis.recoveries);
  check_bool "recoveries closed" true
    (List.for_all
       (fun rec_ -> rec_.Experiments.Trace_analysis.rec_end <> None)
       s.Experiments.Trace_analysis.recoveries);
  check_bool "durations positive" true
    (List.for_all
       (fun r ->
         match r.Experiments.Trace_analysis.rec_end with
         | Some e -> e > r.Experiments.Trace_analysis.rec_start
         | None -> false)
       s.Experiments.Trace_analysis.recoveries);
  check_bool "no confusion" true (s.Experiments.Trace_analysis.confusion_time = None);
  let report = Format.asprintf "%a" Experiments.Trace_analysis.pp s in
  check_bool "report mentions faults" true
    (try
       ignore (Str.search_forward (Str.regexp_string "faults injected") report 0);
       true
     with Not_found -> false)

let test_trace_analysis_confusion () =
  let scenario = Fail_lang.Paper_scenarios.state_synchronized ~n_machines:8 ~period:15 in
  let r = Failmpi.Run.execute (small_spec ~scenario ()) in
  let s = Experiments.Trace_analysis.summarize r.Failmpi.Run.trace in
  check_bool "confusion time recorded" true
    (s.Experiments.Trace_analysis.confusion_time <> None)

let test_events_csv () =
  let trace = Simkern.Trace.create () in
  Simkern.Trace.record trace ~time:1.5 ~source:"x" ~event:"ev" "detail, with comma";
  let csv = Experiments.Trace_analysis.events_csv trace in
  check_bool "header" true
    (String.length csv > 10 && String.sub csv 0 4 = "time");
  check_bool "quoted comma" true
    (try
       ignore (Str.search_forward (Str.regexp_string "\"detail, with comma\"") csv 0);
       true
     with Not_found -> false)

let test_aggs_csv () =
  let agg =
    Experiments.Harness.aggregate ~label:"cfg-a"
      [
        {
          Failmpi.Run.outcome = Failmpi.Run.Completed 10.0;
          injected_faults = 1;
          metrics =
            {
              Failmpi.Backend.Metrics.zero with
              Failmpi.Backend.Metrics.recoveries = 1;
              committed_waves = 2;
            };
          checksums = [];
          checksum_ok = Some true;
          trace = Simkern.Trace.create ();
        };
      ]
  in
  let csv = Experiments.Harness.aggs_csv [ agg ] in
  check_int "two lines" 2 (List.length (String.split_on_char '\n' (String.trim csv)));
  check_bool "has label" true
    (try
       ignore (Str.search_forward (Str.regexp_string "cfg-a,1,1,0,0,0,0,0,0,10.0") csv 0);
       true
     with Not_found -> false)

(* Degraded and aborted runs in the aggregate: a degraded run counts in
   the time statistics and the survivor mean, an aborted one in neither;
   neither inflates [completed]. *)
let test_aggregate_degraded () =
  let result outcome =
    {
      Failmpi.Run.outcome;
      injected_faults = 2;
      metrics = Failmpi.Backend.Metrics.zero;
      checksums = [];
      checksum_ok = None;
      trace = Simkern.Trace.create ();
    }
  in
  let agg =
    Experiments.Harness.aggregate ~label:"shrunk"
      [
        result (Failmpi.Run.Completed 10.0);
        result (Failmpi.Run.Degraded { at = 20.0; survivors = 7 });
        result (Failmpi.Run.Degraded { at = 30.0; survivors = 5 });
        result (Failmpi.Run.Aborted "no quorum");
      ]
  in
  check_int "completed" 1 agg.Experiments.Harness.completed;
  check_int "degraded" 2 agg.Experiments.Harness.degraded;
  check_int "aborted" 1 agg.Experiments.Harness.aborted;
  check (Alcotest.option (Alcotest.float 1e-9)) "mean over completed+degraded"
    (Some 20.0) agg.Experiments.Harness.mean_time;
  check (Alcotest.option (Alcotest.float 1e-9)) "mean survivors" (Some 6.0)
    agg.Experiments.Harness.mean_survivors;
  check (Alcotest.float 1e-9) "pct degraded" 50.0 agg.Experiments.Harness.pct_degraded;
  check (Alcotest.float 1e-9) "pct aborted" 25.0 agg.Experiments.Harness.pct_aborted

(* ------------------------------------------------------------------ *)
(* Shipped scenario files *)

let read_scenario name =
  let path = Filename.concat "../scenarios" name in
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_scenario_files_compile () =
  List.iter
    (fun (file, params) ->
      match Fail_lang.Compile.compile_source ~params (read_scenario file) with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "%s: %s" file msg)
    [
      ("random_crash.fail", [ ("PERIOD", 30) ]);
      ("cascade.fail", [ ("START", 20) ]);
      ("freeze_thaw.fail", [ ("PERIOD", 25) ]);
      ("wave_sniper.fail", [ ("DELAY", 10) ]);
      ( "shrink_storm.fail",
        [
          ("START", 25);
          ("STEP", 3);
          ("LAG", 2);
          ("K1", 1);
          ("K2", 5);
          ("K3", 7);
          ("VICTIM", 2);
        ] );
    ]

let run_scenario_file ?(n_ranks = 9) file params =
  let app = Workload.Stencil.app small_params ~n_ranks in
  let cfg =
    {
      (Mpivcl.Config.default ~n_ranks) with
      Mpivcl.Config.wave_interval = 10.0;
      term_straggler_prob = 0.0;
    }
  in
  let spec =
    {
      (Failmpi.Run.default_spec ~app ~cfg ~n_compute:10 ~state_bytes:500_000) with
      Failmpi.Run.scenario = Some (read_scenario file);
      params;
      timeout = 500.0;
    }
  in
  Failmpi.Run.execute
    ~expected_checksum:(Workload.Stencil.reference_checksum small_params ~n_ranks)
    spec

let test_scenario_cascade () =
  let r = run_scenario_file "cascade.fail" [ ("START", 8) ] in
  check_bool "several faults" true (r.Failmpi.Run.injected_faults >= 2);
  check_bool "completed" true
    (match r.Failmpi.Run.outcome with Failmpi.Run.Completed _ -> true | _ -> false);
  check_bool "checksum" true (r.Failmpi.Run.checksum_ok = Some true)

let test_scenario_freeze_thaw () =
  (* Freezes slow the run down but never trigger failure detection. *)
  let r = run_scenario_file "freeze_thaw.fail" [ ("PERIOD", 12) ] in
  check_int "no crashes" 0 r.Failmpi.Run.injected_faults;
  check_int "no recoveries" 0 (Failmpi.Run.recoveries r);
  (match r.Failmpi.Run.outcome with
  | Failmpi.Run.Completed t -> check_bool "slower than fault-free" true (t > 31.0)
  | _ -> Alcotest.fail "expected completion");
  check_bool "checksum" true (r.Failmpi.Run.checksum_ok = Some true)

let test_scenario_wave_sniper () =
  let r = run_scenario_file "wave_sniper.fail" [ ("DELAY", 5) ] in
  check_int "exactly one fault" 1 r.Failmpi.Run.injected_faults;
  check_bool "completed" true
    (match r.Failmpi.Run.outcome with Failmpi.Run.Completed _ -> true | _ -> false);
  check_bool "checksum" true (r.Failmpi.Run.checksum_ok = Some true)

(* ------------------------------------------------------------------ *)
(* Verdict pins: end-to-end runs that land on the verdicts no other test
   reaches through a full run. *)

let outcome_testable =
  Alcotest.testable
    (fun ppf o ->
      Format.pp_print_string ppf
        (match o with
        | Failmpi.Run.Aborted reason -> Printf.sprintf "aborted (%s)" reason
        | o -> Failmpi.Run.outcome_name o))
    (fun a b ->
      match (a, b) with
      | Failmpi.Run.Completed _, Failmpi.Run.Completed _ -> true
      | a, b -> a = b)

(* The CI ckpt-sniper run: a checkpoint server dies mid-commit, then a
   rank that needs the torn image is killed. Without a mirror the
   restart finds no complete image; with one it fails over. *)
let test_ckpt_sniper_verdicts () =
  let run ckpt_replicas =
    let n_ranks = 9 and klass = Workload.Bt_model.B in
    let cfg = { (Mpivcl.Config.default ~n_ranks) with Mpivcl.Config.ckpt_replicas } in
    let spec =
      {
        (Experiments.Harness.bt_spec ~cfg ~klass ~n_ranks ~n_machines:13
           ~scenario:(Some (read_scenario "ckpt_sniper.fail"))
           ())
        with
        Failmpi.Run.params = [ ("SERVER", 0); ("START", 32); ("RANK", 3); ("GAP", 6) ];
        seed = 1L;
      }
    in
    Failmpi.Run.execute
      ~expected_checksum:(Workload.Bt_model.reference_checksum klass ~n_ranks)
      spec
  in
  let lost = run 1 in
  check outcome_testable "1 replica" Failmpi.Run.Ckpt_lost lost.Failmpi.Run.outcome;
  check_bool "no checksum verdict" true (lost.Failmpi.Run.checksum_ok = None);
  let mirrored = run 2 in
  check outcome_testable "2 replicas" (Failmpi.Run.Completed 0.0)
    mirrored.Failmpi.Run.outcome;
  check_bool "checksum" true (mirrored.Failmpi.Run.checksum_ok = Some true)

(* The quorum-loss cell of the quick shrink grid: the shrink backend's
   agreement gives up cleanly; coordinated rollback keeps detecting and
   recovering until the timeout. *)
let test_quorum_loss_verdicts () =
  let run protocol seed =
    let cfg = { (Mpivcl.Config.default ~n_ranks:9) with Mpivcl.Config.protocol } in
    (Experiments.Harness.run_bt ~cfg ~klass:Workload.Bt_model.A ~n_ranks:9 ~n_machines:22
       ~scenario:(Some Experiments.Experiment.quorum_loss) ~seed ())
      .Failmpi.Run.outcome
  in
  List.iter
    (fun seed ->
      check outcome_testable
        (Printf.sprintf "ulfm seed %Ld" seed)
        (Failmpi.Run.Aborted "agreement exhausted after 25 ballots at epoch 0")
        (run (Mpivcl.Config.Ulfm { spares = 2 }) seed);
      check outcome_testable
        (Printf.sprintf "vcl seed %Ld" seed)
        Failmpi.Run.Non_terminating
        (run Mpivcl.Config.Non_blocking seed))
    [ 2100L; 2101L ]

(* Every experiment's full and quick grids, listed without running a
   simulation: per size, the number of tables, cells and runs and the
   first cell's base seed (the sizes of the figure modules and CLI
   presets that the experiment table replaced). *)
let test_experiment_grids () =
  let module E = Experiments.Experiment in
  let cli =
    [
      "table1"; "fig5"; "fig6"; "fig7"; "fig9"; "fig11"; "ablations"; "families"; "netfault";
      "topo"; "shrink"; "scale"; "ckptfault"; "delay";
    ]
  in
  check Alcotest.(list string) "CLI order" cli E.names;
  check_int "unique names" (List.length cli) (List.length (List.sort_uniq compare E.names));
  let shape e ~quick =
    let tables = e.E.tables ~quick in
    let cells = List.concat_map (fun t -> t.E.cells) tables in
    ( List.length tables,
      List.length cells,
      List.fold_left (fun n c -> n + c.Experiments.Harness.reps) 0 cells,
      match cells with [] -> None | c :: _ -> Some c.Experiments.Harness.base_seed )
  in
  let shape_t = Alcotest.(pair (pair int int) (pair int (option int))) in
  let pinned =
    (* name, full (tables, cells, runs, first seed), quick (the same) *)
    [
      ("table1", (0, 0, 0, None), (0, 0, 0, None));
      ("fig5", (1, 7, 42, Some 100), (1, 3, 6, Some 100));
      ("fig6", (1, 8, 40, Some 200), (1, 4, 8, Some 200));
      ("fig7", (1, 5, 30, Some 300), (1, 2, 6, Some 300));
      ("fig9", (1, 8, 32, Some 400), (1, 4, 10, Some 400));
      ("fig11", (1, 8, 32, Some 500), (1, 4, 10, Some 500));
      ("ablations", (4, 26, 100, Some 1000), (4, 26, 52, Some 1000));
      ("families", (1, 15, 45, Some 1300), (1, 10, 20, Some 1300));
      ("netfault", (1, 20, 60, Some 1700), (1, 10, 20, Some 1700));
      ("topo", (1, 4, 12, Some 1900), (1, 4, 8, Some 1900));
      ("shrink", (1, 20, 60, Some 2100), (1, 10, 20, Some 2100));
      ("scale", (1, 12, 12, Some 700), (1, 12, 12, Some 700));
      ("ckptfault", (1, 24, 72, Some 2100), (1, 24, 24, Some 2100));
      ("delay", (1, 6, 18, Some 900), (1, 3, 3, Some 900));
    ]
  in
  check
    Alcotest.(list string)
    "every experiment pinned" E.names
    (List.map (fun (n, _, _) -> n) pinned);
  List.iter2
    (fun e (name, full, quick) ->
      let pin (t, c, r, s) = ((t, c), (r, s)) in
      check shape_t (name ^ " full") (pin full) (pin (shape e ~quick:false));
      check shape_t (name ^ " quick") (pin quick) (pin (shape e ~quick:true)))
    E.all pinned

(* A label longer than its column widens the column instead of pushing
   the rest of its row out of line. *)
let test_render_widens () =
  let agg label =
    Experiments.Harness.aggregate ~label
      [
        {
          Failmpi.Run.outcome = Failmpi.Run.Completed 123.0;
          injected_faults = 0;
          metrics = Failmpi.Backend.Metrics.zero;
          checksums = [];
          checksum_ok = Some true;
          trace = Simkern.Trace.create ();
        };
      ]
  in
  let long = "BT 64 sender-logging (no faults)" in
  let table = Experiments.Harness.render_table ~title:"T" [ agg "short"; agg long ] in
  match String.split_on_char '\n' table with
  | _ :: _ :: header :: short :: long_row :: _ ->
      List.iter
        (fun row -> check_int "row width" (String.length header) (String.length row))
        [ short; long_row ];
      check_bool "label fits" true
        (String.sub long_row 0 (String.length long + 1) = long ^ " ")
  | _ -> Alcotest.fail "table has too few lines"

let test_delay_scenario_compiles () =
  let src = Experiments.Experiment.delay_scenario ~delay:7 in
  match Fail_lang.Compile.compile_source src with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "delay scenario: %s" msg

(* The quick delay grid restarts vcl ranks from waves whose channel
   logs hold in-transit messages: a wave that logs nothing leaves its
   10 s and 20 s cells non-terminating. *)
let test_delay_cells_complete () =
  let module E = Experiments.Experiment in
  let delay = List.find (fun e -> e.E.name = "delay") E.all in
  List.iter
    (fun table ->
      List.iter
        (fun (label, results) ->
          List.iter
            (fun r ->
              match r.Failmpi.Run.outcome with
              | Failmpi.Run.Completed _ ->
                  check_bool (label ^ ": checksums") true (r.Failmpi.Run.checksum_ok = Some true)
              | o -> Alcotest.failf "%s: %s" label (Failmpi.Run.outcome_name o))
            results)
        (Experiments.Harness.campaign ~jobs:1 table.E.cells))
    (delay.E.tables ~quick:true)

(* The 10 s delay cell, traced: some vcl daemon restarts from a wave
   whose channel log it saw hold in-transit messages, so the restart
   restores a non-empty log. *)
let test_delay_restores_channel_log () =
  let r =
    Experiments.Harness.run_bt ~cfg:(Mpivcl.Config.default ~n_ranks:49)
      ~trace_level:Simkern.Trace.Full ~klass:Workload.Bt_model.B ~n_ranks:49 ~n_machines:53
      ~scenario:(Some (Experiments.Experiment.delay_scenario ~delay:10))
      ~seed:900L ()
  in
  let logged = Hashtbl.create 64 and restored = ref [] in
  List.iter
    (fun (e : Simkern.Trace.entry) ->
      match e.event with
      | "local-checkpoint" ->
          Scanf.sscanf e.detail "wave %d (%d logged)" (fun wave n ->
              Hashtbl.replace logged (e.source, wave) n)
      | "restored" when e.detail <> "fresh" ->
          Scanf.sscanf e.detail "wave %d" (fun wave ->
              match Hashtbl.find_opt logged (e.source, wave) with
              | Some n when n > 0 -> restored := (e.source, wave, n) :: !restored
              | Some _ | None -> ())
      | _ -> ())
    (Simkern.Trace.entries r.Failmpi.Run.trace);
  if !restored = [] then Alcotest.fail "no restart restored a wave that logged a message";
  check_bool "completed" true
    (match r.Failmpi.Run.outcome with Failmpi.Run.Completed _ -> true | _ -> false)

(* ---------- the per-run GC policy ---------- *)

let policy_words = Failmpi.Gc_policy.minor_heap_words

let test_gc_policy_sizing () =
  List.iter
    (fun n -> check_int (Printf.sprintf "floor at %d hosts" n) 262_144 (policy_words ~n_compute:n))
    [ 1; 4; 53; 101; 256; 511; 512 ];
  List.iter
    (fun n -> check_int (Printf.sprintf "512 x %d hosts" n) (512 * n) (policy_words ~n_compute:n))
    [ 513; 1018; 4090; 8186; 16_378 ];
  List.iter
    (fun n -> check_int (Printf.sprintf "cap at %d hosts" n) 8_388_608 (policy_words ~n_compute:n))
    [ 16_384; 16_385; 100_000 ];
  let rec monotone n prev =
    n > 40_000
    ||
    let w = policy_words ~n_compute:n in
    w >= prev && monotone (n + 7) w
  in
  check_bool "monotone" true (monotone 1 0)

let minor_heap_size () = (Gc.get ()).Gc.minor_heap_size

(* Runs [f] with OCAMLRUNPARAM set to [value] and the calling domain's
   minor heap restored afterwards. An empty OCAMLRUNPARAM has no s=
   entry and hides CAMLRUNPARAM, so the policy tests do not depend on
   the environment they are run in. *)
let with_runparam ?(value = "") f =
  let saved_env = Sys.getenv_opt "OCAMLRUNPARAM" in
  let saved_size = minor_heap_size () in
  Unix.putenv "OCAMLRUNPARAM" value;
  Fun.protect f ~finally:(fun () ->
      Unix.putenv "OCAMLRUNPARAM" (Option.value saved_env ~default:"");
      if minor_heap_size () <> saved_size then
        Gc.set { (Gc.get ()) with Gc.minor_heap_size = saved_size })

(* A 1024-host deployment of the scale bench's stencil: 1018 compute
   hosts seat 31 x 31 ranks. *)
let stencil_1024 () =
  let n_ranks = 31 * 31 in
  let cfg = { (Mpivcl.Config.default ~n_ranks) with Mpivcl.Config.lazy_peer_mesh = true } in
  {
    (Failmpi.Run.default_spec ~app:(Workload.Stencil.app small_params ~n_ranks) ~cfg
       ~n_compute:1018 ~state_bytes:100_000)
    with
    Failmpi.Run.trace_level = Simkern.Trace.Summary;
  }

let test_gc_policy_small_run () =
  with_runparam (fun () ->
      let before = minor_heap_size () in
      ignore (Failmpi.Run.prepare (small_spec ()));
      check_int "4-rank prepare leaves the minor heap" before (minor_heap_size ()))

let test_gc_policy_large_run () =
  with_runparam (fun () ->
      ignore (Failmpi.Run.prepare (stencil_1024 ()));
      check_int "1024-host prepare sizes the minor heap" (policy_words ~n_compute:1018)
        (minor_heap_size ()))

let test_gc_policy_override () =
  with_runparam ~value:"s=300k" (fun () ->
      let before = minor_heap_size () in
      check (Alcotest.option Alcotest.string) "override read" (Some "s=300k")
        (Failmpi.Gc_policy.override ());
      ignore (Failmpi.Run.prepare (stencil_1024 ()));
      check_int "s= wins over the policy" before (minor_heap_size ()))

let test_gc_policy_par_workers () =
  with_runparam (fun () ->
      let before = minor_heap_size () in
      let sizes =
        Par.map ~jobs:2
          (fun spec ->
            ignore (Failmpi.Run.prepare spec);
            minor_heap_size ())
          [ stencil_1024 (); stencil_1024 () ]
      in
      check (Alcotest.list Alcotest.int) "each worker domain sized by the policy"
        [ policy_words ~n_compute:1018; policy_words ~n_compute:1018 ]
        sizes;
      check_int "main domain unchanged" before (minor_heap_size ()))

let () =
  Alcotest.run "failmpi"
    [
      ( "run",
        [
          Alcotest.test_case "no faults completes" `Quick test_no_faults_completes;
          Alcotest.test_case "frequency scenario recovers" `Quick test_frequency_scenario_recovers;
          Alcotest.test_case "state-sync is buggy" `Quick test_state_sync_is_buggy;
          Alcotest.test_case "fixed dispatcher survives" `Quick
            test_state_sync_fixed_dispatcher_survives;
          Alcotest.test_case "overwhelming faults non-terminating" `Quick
            test_overwhelming_faults_non_terminating;
          Alcotest.test_case "V2 survives overwhelming faults" `Quick
            test_v2_survives_overwhelming_faults;
          Alcotest.test_case "checksum mismatch detected" `Quick test_checksum_mismatch_detected;
          Alcotest.test_case "scenario error raises" `Quick test_scenario_error_raises;
          Alcotest.test_case "outcome names" `Quick test_outcome_names;
          Alcotest.test_case "spec validation" `Quick test_run_validation;
          Alcotest.test_case "determinism" `Quick test_determinism;
        ] );
      ( "harness",
        [
          Alcotest.test_case "stats" `Quick test_stats;
          Alcotest.test_case "aggregate" `Quick test_aggregate;
          Alcotest.test_case "render table" `Quick test_render_table;
          Alcotest.test_case "render widens long labels" `Quick test_render_widens;
          Alcotest.test_case "experiment grids" `Quick test_experiment_grids;
          Alcotest.test_case "machines_for" `Quick test_machines_for;
          Alcotest.test_case "replicate seeds" `Quick test_replicate_seeds;
          Alcotest.test_case "delay scenario compiles" `Quick test_delay_scenario_compiles;
          Alcotest.test_case "quick delay cells complete" `Quick test_delay_cells_complete;
          Alcotest.test_case "delay restart restores a channel log" `Quick
            test_delay_restores_channel_log;
          Alcotest.test_case "trace analysis" `Quick test_trace_analysis;
          Alcotest.test_case "trace analysis confusion" `Quick test_trace_analysis_confusion;
          Alcotest.test_case "events csv" `Quick test_events_csv;
          Alcotest.test_case "aggs csv" `Quick test_aggs_csv;
          Alcotest.test_case "aggregate degraded/aborted" `Quick test_aggregate_degraded;
        ] );
      ( "scenario-files",
        [
          Alcotest.test_case "all compile" `Quick test_scenario_files_compile;
          Alcotest.test_case "cascade" `Quick test_scenario_cascade;
          Alcotest.test_case "freeze/thaw" `Quick test_scenario_freeze_thaw;
          Alcotest.test_case "wave sniper" `Quick test_scenario_wave_sniper;
        ] );
      ( "verdicts",
        [
          Alcotest.test_case "ckpt sniper lost vs mirrored" `Quick test_ckpt_sniper_verdicts;
          Alcotest.test_case "quorum loss aborted vs non-terminating" `Quick
            test_quorum_loss_verdicts;
        ] );
      ( "gc-policy",
        [
          Alcotest.test_case "sizing" `Quick test_gc_policy_sizing;
          Alcotest.test_case "small run unchanged" `Quick test_gc_policy_small_run;
          Alcotest.test_case "1024-host prepare" `Quick test_gc_policy_large_run;
          Alcotest.test_case "s= override wins" `Quick test_gc_policy_override;
          Alcotest.test_case "par worker domains" `Quick test_gc_policy_par_workers;
        ] );
    ]
