(* Tests for the workload library: stencil topology, reference checksums,
   BT model calibration. *)

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

open Workload

let params ?(iterations = 10) () =
  { Stencil.iterations; compute_time = 0.1; msg_bytes = 1000; jitter = 0.0 }

let test_reference_deterministic () =
  let p = params () in
  check_int "same twice" (Stencil.reference_checksum p ~n_ranks:9)
    (Stencil.reference_checksum p ~n_ranks:9)

let test_reference_varies () =
  let p = params () in
  let a = Stencil.reference_checksum p ~n_ranks:9 in
  let b = Stencil.reference_checksum p ~n_ranks:16 in
  let c = Stencil.reference_checksum { p with Stencil.iterations = 11 } ~n_ranks:9 in
  check_bool "differs by size" true (a <> b);
  check_bool "differs by iterations" true (a <> c)

let test_reference_nonzero () =
  List.iter
    (fun n ->
      check_bool
        (Printf.sprintf "nonzero for %d" n)
        true
        (Stencil.reference_checksum (params ()) ~n_ranks:n <> 0))
    [ 1; 4; 9; 25 ]

let test_non_square_rejected () =
  Alcotest.check_raises "7 ranks" (Invalid_argument "Stencil: 7 ranks is not a perfect square")
    (fun () -> ignore (Stencil.app (params ()) ~n_ranks:7))

let test_valid_ranks () =
  List.iter
    (fun (n, ok) -> check_bool (Printf.sprintf "valid_ranks %d" n) ok (Stencil.valid_ranks n))
    [ (-4, false); (0, false); (1, true); (4, true); (5, false); (9, true); (49, true); (50, false) ]

let test_mix_range () =
  for i = 0 to 1000 do
    let v = Stencil.mix i (i * 7919) in
    check_bool "30-bit" true (v >= 0 && v < 0x40000000)
  done

let prop_mix_sensitive =
  QCheck.Test.make ~name:"mix is input-sensitive" ~count:200
    QCheck.(pair (int_bound 1_000_000) (int_bound 1_000_000))
    (fun (a, b) -> a = b || Stencil.mix a b = Stencil.mix a b)

(* ------------------------------------------------------------------ *)
(* BT model *)

let test_bt_compute_scales () =
  let p25 = Bt_model.params Bt_model.B ~n_ranks:25 in
  let p64 = Bt_model.params Bt_model.B ~n_ranks:64 in
  check_bool "per-rank compute shrinks" true
    (p64.Stencil.compute_time < p25.Stencil.compute_time);
  (* Constant aggregate work: n * compute_time equal across sizes. *)
  check (Alcotest.float 1e-6) "aggregate work constant"
    (25.0 *. p25.Stencil.compute_time)
    (64.0 *. p64.Stencil.compute_time)

let test_bt_image_shrinks () =
  check_bool "image smaller at 64 ranks" true
    (Bt_model.state_bytes Bt_model.B ~n_ranks:64 < Bt_model.state_bytes Bt_model.B ~n_ranks:25)

(* The communication-free lower bound of a run: iterations x per-rank
   compute. *)
let ideal_runtime klass ~n_ranks =
  let p = Bt_model.params klass ~n_ranks in
  float_of_int p.Stencil.iterations *. p.Stencil.compute_time

let test_bt_classes_ordered () =
  let t k = ideal_runtime k ~n_ranks:49 in
  check_bool "A < B < C" true (t Bt_model.A < t Bt_model.B && t Bt_model.B < t Bt_model.C)

let test_bt_class_parse () =
  check_bool "B" true (Bt_model.klass_of_string "B" = Some Bt_model.B);
  check_bool "b" true (Bt_model.klass_of_string "b" = Some Bt_model.B);
  check_bool "bogus" true (Bt_model.klass_of_string "Z" = None);
  check Alcotest.string "name" "C" (Bt_model.klass_name Bt_model.C)

let test_bt_calibration_ballpark () =
  (* The paper's failure-free BT-49 class B is ~210 s; the ideal runtime
     (without communication) must be just under that. *)
  let t = ideal_runtime Bt_model.B ~n_ranks:49 in
  check_bool "BT-49/B near 210 s" true (t > 180.0 && t < 230.0)

(* ------------------------------------------------------------------ *)
(* Master-worker *)

let mw_params = { Master_worker.tasks = 30; task_time = 0.3; task_bytes = 10_000; jitter = 0.2 }

let test_mw_rounds () =
  check_int "rounds up" 5 (Master_worker.rounds mw_params ~n_ranks:8);
  check_int "exact" 10 (Master_worker.rounds { mw_params with Master_worker.tasks = 30 } ~n_ranks:4)

let test_mw_needs_two_ranks () =
  Alcotest.check_raises "one rank" (Invalid_argument "Master_worker: need at least 2 ranks")
    (fun () -> ignore (Master_worker.app mw_params ~n_ranks:1))

let test_mw_reference_deterministic () =
  check_int "same" (Master_worker.reference_checksum mw_params ~n_ranks:5)
    (Master_worker.reference_checksum mw_params ~n_ranks:5);
  check_bool "varies with size" true
    (Master_worker.reference_checksum mw_params ~n_ranks:5
    <> Master_worker.reference_checksum mw_params ~n_ranks:6)

let run_mw ?(protocol = Mpivcl.Config.Non_blocking) ?kill_master_at () =
  let n_ranks = 4 in
  let app = Master_worker.app mw_params ~n_ranks in
  let cfg =
    {
      (Mpivcl.Config.default ~n_ranks) with
      Mpivcl.Config.wave_interval = 5.0;
      protocol;
      term_straggler_prob = 0.0;
    }
  in
  let spec =
    {
      (Failmpi.Run.default_spec ~app ~cfg ~n_compute:6 ~state_bytes:500_000) with
      Failmpi.Run.scenario =
        Option.map
          (fun t ->
            Printf.sprintf
              "Daemon K { node 1: time t = %d; timer -> !crash(G1[0]), goto 2; node 2: ?no                -> !crash(G1[0]), goto 2; ?ok -> goto 3; node 3: }
               Daemon N { node 1: onload -> continue, goto 2; ?crash -> !no(P1), goto 1;                node 2: onexit -> goto 1; onerror -> goto 1; onload -> continue, goto 2;                ?crash -> !ok(P1), halt, goto 1; }
               P1 : K on machine 6; G1[6] : N on machines 0 .. 5;"
              t)
          kill_master_at;
      timeout = 400.0;
    }
  in
  Failmpi.Run.execute
    ~expected_checksum:(Master_worker.reference_checksum mw_params ~n_ranks)
    spec

let test_mw_failure_free () =
  let r = run_mw () in
  check_bool "completed" true
    (match r.Failmpi.Run.outcome with Failmpi.Run.Completed _ -> true | _ -> false);
  check_bool "checksum" true (r.Failmpi.Run.checksum_ok = Some true)

let test_mw_master_killed_vcl () =
  let r = run_mw ~kill_master_at:4 () in
  check_bool "fault hit" true (r.Failmpi.Run.injected_faults >= 1);
  check_bool "completed" true
    (match r.Failmpi.Run.outcome with Failmpi.Run.Completed _ -> true | _ -> false);
  check_bool "checksum" true (r.Failmpi.Run.checksum_ok = Some true)

let test_mw_master_killed_v2 () =
  let r = run_mw ~protocol:Mpivcl.Config.Sender_logging ~kill_master_at:4 () in
  check_bool "fault hit" true (r.Failmpi.Run.injected_faults >= 1);
  check_bool "completed" true
    (match r.Failmpi.Run.outcome with Failmpi.Run.Completed _ -> true | _ -> false);
  check_bool "checksum" true (r.Failmpi.Run.checksum_ok = Some true)

(* Full-stack check: a simulated failure-free run reproduces the
   functional reference checksum for several sizes. *)
let test_reference_matches_simulation () =
  List.iter
    (fun n_ranks ->
      let p = params ~iterations:8 () in
      let app = Stencil.app p ~n_ranks in
      let cfg = Mpivcl.Config.default ~n_ranks in
      let spec =
        {
          (Failmpi.Run.default_spec ~app ~cfg ~n_compute:(n_ranks + 2) ~state_bytes:100_000) with
          Failmpi.Run.timeout = 500.0;
        }
      in
      let expected = Stencil.reference_checksum p ~n_ranks in
      let r = Failmpi.Run.execute ~expected_checksum:expected spec in
      check_bool
        (Printf.sprintf "%d ranks checksum" n_ranks)
        true
        (r.Failmpi.Run.checksum_ok = Some true))
    [ 1; 4; 9 ]

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_mix_sensitive ] in
  Alcotest.run "workload"
    [
      ( "stencil",
        [
          Alcotest.test_case "reference deterministic" `Quick test_reference_deterministic;
          Alcotest.test_case "reference varies" `Quick test_reference_varies;
          Alcotest.test_case "reference nonzero" `Quick test_reference_nonzero;
          Alcotest.test_case "non-square rejected" `Quick test_non_square_rejected;
          Alcotest.test_case "valid ranks" `Quick test_valid_ranks;
          Alcotest.test_case "mix range" `Quick test_mix_range;
          Alcotest.test_case "reference matches simulation" `Quick
            test_reference_matches_simulation;
        ] );
      ( "master-worker",
        [
          Alcotest.test_case "rounds" `Quick test_mw_rounds;
          Alcotest.test_case "needs two ranks" `Quick test_mw_needs_two_ranks;
          Alcotest.test_case "reference deterministic" `Quick test_mw_reference_deterministic;
          Alcotest.test_case "failure free" `Quick test_mw_failure_free;
          Alcotest.test_case "master killed (Vcl)" `Quick test_mw_master_killed_vcl;
          Alcotest.test_case "master killed (V2)" `Quick test_mw_master_killed_v2;
        ] );
      ( "bt-model",
        [
          Alcotest.test_case "compute scales" `Quick test_bt_compute_scales;
          Alcotest.test_case "image shrinks" `Quick test_bt_image_shrinks;
          Alcotest.test_case "classes ordered" `Quick test_bt_classes_ordered;
          Alcotest.test_case "class parse" `Quick test_bt_class_parse;
          Alcotest.test_case "calibration ballpark" `Quick test_bt_calibration_ballpark;
        ] );
      ("properties", qsuite);
    ]
