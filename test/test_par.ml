(* Tests for the Par domain pool and the parallel campaign path:

   - Par.map: input order, sequential/parallel identity, exception
     propagation, degenerate sizes;
   - Harness.campaign at --jobs 4 must be bit-identical to --jobs 1 on
     real BT runs (outcome, completion time, fault count, checksums);
   - the vcl golden fixed-seed runs of test_backend must reproduce
     exactly when executed on a 4-domain pool;
   - backend lookups are safe under concurrent domains. *)

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let check_str = check Alcotest.string

(* ------------------------------------------------------------------ *)
(* Par.map *)

let test_map_order () =
  let xs = List.init 37 Fun.id in
  check (Alcotest.list Alcotest.int) "squares in order"
    (List.map (fun x -> x * x) xs)
    (Par.map ~jobs:4 (fun x -> x * x) xs)

let test_map_matches_sequential () =
  let xs = List.init 101 (fun i -> i - 50) in
  let f x = (x * 7919) mod 104729 in
  check (Alcotest.list Alcotest.int) "jobs:4 = jobs:1"
    (Par.map ~jobs:1 f xs) (Par.map ~jobs:4 f xs)

let test_map_degenerate () =
  check (Alcotest.list Alcotest.int) "empty" [] (Par.map ~jobs:4 succ []);
  check (Alcotest.list Alcotest.int) "singleton" [ 2 ] (Par.map ~jobs:4 succ [ 1 ]);
  check (Alcotest.list Alcotest.int) "more jobs than items" [ 2; 3 ]
    (Par.map ~jobs:16 succ [ 1; 2 ])

exception Boom of int

let test_map_exception () =
  (* The first failure in input order is re-raised, after every job ran. *)
  let ran = Array.make 8 false in
  (try
     ignore
       (Par.map ~jobs:4
          (fun i ->
            ran.(i) <- true;
            if i = 2 || i = 5 then raise (Boom i))
          (List.init 8 Fun.id));
     Alcotest.fail "expected Boom"
   with Boom i -> check_int "first in input order" 2 i);
  check_bool "all jobs ran" true (Array.for_all Fun.id ran)

let test_map_seeds_order () =
  check (Alcotest.list Alcotest.int64) "seed order"
    [ 10L; 11L; 12L; 13L; 14L ]
    (Par.map_seeds ~jobs:3 ~reps:5 ~base_seed:10 (fun ~seed -> seed))

(* ------------------------------------------------------------------ *)
(* Parallel campaigns over real simulation runs *)

let fingerprint (r : Failmpi.Run.result) =
  ( (match r.Failmpi.Run.outcome with
    | Failmpi.Run.Completed t -> Printf.sprintf "completed %.9f" t
    | o -> Failmpi.Run.outcome_name o),
    r.Failmpi.Run.injected_faults,
    r.Failmpi.Run.checksums,
    r.Failmpi.Run.checksum_ok )

let fp_testable =
  Alcotest.(
    list
      (pair string
         (pair int
            (pair
               (list (pair int int))
               (option bool)))))

let flatten fps = List.map (fun (o, f, c, k) -> (o, (f, (c, k)))) fps

let bt_cells () =
  let n_ranks = 9 in
  let n_machines = Experiments.Harness.machines_for n_ranks in
  let scenario =
    Some (Fail_lang.Paper_scenarios.frequency ~n_machines ~period:25)
  in
  let run ~scenario ~seed =
    Experiments.Harness.run_bt ~klass:Workload.Bt_model.A ~n_ranks ~n_machines
      ~scenario ~seed ()
  in
  [
    Experiments.Harness.cell ~tag:"faulty" ~reps:5 ~base_seed:300 (fun ~seed ->
        run ~scenario ~seed);
    Experiments.Harness.cell ~tag:"clean" ~reps:3 ~base_seed:700 (fun ~seed ->
        run ~scenario:None ~seed);
  ]

let test_campaign_parallel_identical () =
  (* >= 8 independent seeds across two cells; every observable of every
     run must match the sequential execution exactly. *)
  let seq = Experiments.Harness.campaign ~jobs:1 (bt_cells ()) in
  let par = Experiments.Harness.campaign ~jobs:4 (bt_cells ()) in
  check (Alcotest.list Alcotest.string) "cell tags in order"
    (List.map fst seq) (List.map fst par);
  List.iter2
    (fun (tag, seq_rs) (_, par_rs) ->
      check fp_testable (tag ^ " runs identical")
        (flatten (List.map fingerprint seq_rs))
        (flatten (List.map fingerprint par_rs)))
    seq par

(* Byte-identical reports at 4096 ranks: two fixed-seed fault-free
   stencil runs on a 4102-host cluster, executed sequentially and on a
   4-domain pool. Every per-run observable and the rendered campaign
   table must match exactly. Short (2-iteration) stencil plus the lazy
   daemon mesh keep the pair of 4096-rank runs in test-suite budget. *)

let big_cells () =
  let n_ranks = 4096 in
  let params =
    { Workload.Stencil.iterations = 2; compute_time = 0.5; msg_bytes = 10_000; jitter = 0.0 }
  in
  let cfg =
    {
      (Mpivcl.Config.default ~n_ranks) with
      Mpivcl.Config.wave_interval = 20.0;
      init_delay_min = 0.1;
      init_delay_max = 0.1;
      term_straggler_prob = 0.0;
      store_jitter = 0.0;
      lazy_peer_mesh = true;
    }
  in
  let app = Workload.Stencil.app params ~n_ranks in
  let spec =
    {
      (Failmpi.Run.default_spec ~app ~cfg ~n_compute:n_ranks ~state_bytes:100_000) with
      Failmpi.Run.timeout = 600.0;
      trace_level = Simkern.Trace.Summary;
    }
  in
  [
    Experiments.Harness.cell ~tag:"bt-4096" ~reps:2 ~base_seed:500 (fun ~seed ->
        Failmpi.Run.execute { spec with Failmpi.Run.seed });
  ]

let test_campaign_4096_identical () =
  let seq = Experiments.Harness.campaign ~jobs:1 (big_cells ()) in
  let par = Experiments.Harness.campaign ~jobs:4 (big_cells ()) in
  List.iter2
    (fun (tag, seq_rs) (_, par_rs) ->
      List.iter
        (fun (r : Failmpi.Run.result) ->
          check_bool "completed" true
            (match r.Failmpi.Run.outcome with
            | Failmpi.Run.Completed _ -> true
            | _ -> false))
        seq_rs;
      check fp_testable (tag ^ " runs identical")
        (flatten (List.map fingerprint seq_rs))
        (flatten (List.map fingerprint par_rs)))
    seq par;
  let table results =
    Experiments.Harness.render_table ~title:"scale"
      (List.map (fun (tag, rs) -> Experiments.Harness.aggregate ~label:tag rs) results)
  in
  check_str "rendered report identical" (table seq) (table par)

(* The vcl golden runs of test_backend, reproduced on a 4-domain pool:
   same spec, same seeds, times pinned to the pre-refactor captures. *)

let golden_run ~seed =
  let n_ranks = 4 and n_machines = 8 in
  let app =
    Workload.Stencil.app
      { Workload.Stencil.iterations = 60; compute_time = 0.5; msg_bytes = 5_000; jitter = 0.0 }
      ~n_ranks
  in
  let cfg =
    {
      (Mpivcl.Config.default ~n_ranks) with
      Mpivcl.Config.protocol = Mpivcl.Config.Non_blocking;
      wave_interval = 10.0;
      term_straggler_prob = 0.0;
    }
  in
  Failmpi.Run.execute
    {
      (Failmpi.Run.default_spec ~app ~cfg ~n_compute:n_machines ~state_bytes:1_000_000) with
      Failmpi.Run.scenario =
        Some (Fail_lang.Paper_scenarios.frequency ~n_machines ~period:15);
      timeout = 400.0;
      seed;
    }

let test_golden_under_parallelism () =
  let results =
    Par.map ~jobs:4 (fun seed -> golden_run ~seed) [ 1L; 7L; 1L; 7L ]
  in
  List.iter2
    (fun expected (r : Failmpi.Run.result) ->
      check_str "pinned completion time" expected
        (match r.Failmpi.Run.outcome with
        | Failmpi.Run.Completed t -> Printf.sprintf "%.6f" t
        | o -> Failmpi.Run.outcome_name o);
      check_int "pinned faults" 3 r.Failmpi.Run.injected_faults)
    [ "53.935736"; "51.763581"; "53.935736"; "51.763581" ]
    results

(* ------------------------------------------------------------------ *)
(* Trace details under concurrent readers *)

let test_trace_concurrent_readers () =
  (* Campaign workers share completed run results across domains; every
     reader must see every detail, with no lock around the trace. *)
  let n = 200 in
  let t = Simkern.Trace.create () in
  for i = 0 to n - 1 do
    Simkern.Trace.record t ~time:(float_of_int i) ~source:"test" ~event:"e" "detail %d" i
  done;
  let reads =
    Par.map ~jobs:4
      (fun _ ->
        List.map (fun e -> e.Simkern.Trace.detail) (Simkern.Trace.entries t))
      (List.init 8 Fun.id)
  in
  let expected = List.init n (Printf.sprintf "detail %d") in
  List.iteri
    (fun i details ->
      check (Alcotest.list Alcotest.string)
        (Printf.sprintf "reader %d sees every detail" i)
        expected details)
    reads

(* ------------------------------------------------------------------ *)
(* Backend lookups under concurrent domains *)

let test_registry_concurrent_lookups () =
  let errors = Atomic.make 0 in
  let worker () =
    for _ = 1 to 1_000 do
      (match Failmpi.Backend.find "vcl" with
      | Some (module B : Failmpi.Backend.S) ->
          if B.name <> "vcl" then Atomic.incr errors
      | None -> Atomic.incr errors);
      if List.length (Failmpi.Backend.all ()) < 4 then Atomic.incr errors;
      match Failmpi.Backend.of_protocol Mpivcl.Config.Blocking with
      | (module B : Failmpi.Backend.S) ->
          if B.name <> "blocking" then Atomic.incr errors
    done
  in
  let domains = List.init 4 (fun _ -> Domain.spawn worker) in
  List.iter Domain.join domains;
  check_int "no lookup anomalies" 0 (Atomic.get errors)

let () =
  Alcotest.run "par"
    [
      ( "map",
        [
          Alcotest.test_case "order" `Quick test_map_order;
          Alcotest.test_case "matches sequential" `Quick test_map_matches_sequential;
          Alcotest.test_case "degenerate sizes" `Quick test_map_degenerate;
          Alcotest.test_case "exception propagation" `Quick test_map_exception;
          Alcotest.test_case "map_seeds order" `Quick test_map_seeds_order;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "parallel identical" `Quick test_campaign_parallel_identical;
          Alcotest.test_case "4096 ranks jobs 1 = jobs 4" `Quick test_campaign_4096_identical;
          Alcotest.test_case "golden under jobs 4" `Quick test_golden_under_parallelism;
        ] );
      ( "trace",
        [
          Alcotest.test_case "details under concurrent readers" `Quick
            test_trace_concurrent_readers;
        ] );
      ( "registry",
        [
          Alcotest.test_case "concurrent lookups" `Quick test_registry_concurrent_lookups;
        ] );
    ]
