(* Integration tests for the replication backend (mpirep): failure-free
   checksum parity with MPICH-Vcl, zero-rollback failover of a single
   replica, duplicate suppression under multicast redundancy and
   log-flush re-sends, replication exhaustion (both direct kills and the
   [replica_split] FAIL scenario), and determinism by seed; plus unit
   tests of the send log's numbering of re-executed sends, which no
   integration run here reaches. *)

open Simkern

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

let test_params =
  { Workload.Stencil.iterations = 30; compute_time = 0.5; msg_bytes = 10_000; jitter = 0.0 }

let test_cfg ?(degree = 2) ~n_ranks () =
  {
    (Mpivcl.Config.default ~n_ranks) with
    Mpivcl.Config.protocol = Mpivcl.Config.Replication { degree };
    init_delay_min = 0.1;
    init_delay_max = 0.1;
    ssh_delay = 0.3;
    relaunch_delay = 0.0;
    term_straggler_prob = 0.0;
    store_jitter = 0.0;
  }

let instrument_app app results =
  {
    app with
    Mpivcl.App.main =
      (fun ctx ->
        app.Mpivcl.App.main ctx;
        Hashtbl.replace results ctx.Mpivcl.App.rank ctx.Mpivcl.App.state.(2));
  }

type run = {
  eng : Engine.t;
  handle : Mpirep.Deploy.handle;
  results : (int, int) Hashtbl.t;
  reference : int;
  n_ranks : int;
}

let setup ?(seed = 7L) ?(n_ranks = 4) ?(degree = 2) ?(n_compute = 10) ?params () =
  let params = Option.value ~default:test_params params in
  let cfg = test_cfg ~degree ~n_ranks () in
  let eng = Engine.create ~seed () in
  let results = Hashtbl.create 16 in
  let app = instrument_app (Workload.Stencil.app params ~n_ranks) results in
  let handle = Mpirep.Deploy.launch eng ~cfg ~app ~state_bytes:1_000_000 ~n_compute () in
  let reference = Workload.Stencil.reference_checksum params ~n_ranks in
  { eng; handle; results; reference; n_ranks }

let run_until run t = ignore (Engine.run ~until:t run.eng)
let dispatcher run = run.handle.Mpirep.Deploy.rdispatcher
let trace run = Engine.trace run.eng

let assert_completed ?(msg = "completed") run =
  match Mpirep.Rdispatcher.peek_outcome (dispatcher run) with
  | Some (Mpirep.Rdispatcher.Completed _) -> ()
  | Some (Mpirep.Rdispatcher.Aborted reason) -> Alcotest.failf "%s: aborted: %s" msg reason
  | None -> Alcotest.failf "%s: still running" msg

let assert_checksums run =
  check_int "all ranks reported" run.n_ranks (Hashtbl.length run.results);
  Hashtbl.iter
    (fun rank checksum ->
      check_int (Printf.sprintf "rank %d checksum" rank) run.reference checksum)
    run.results

(* Kill one replica (communication daemon + computation process) of a
   logical rank, as a FAIL-MPI halt on its host does. *)
let kill_replica run rank slot =
  let cluster = Mpirep.Deploy.cluster run.handle in
  let killed = ref 0 in
  List.iter
    (fun p ->
      let name = Proc.name p in
      if
        String.equal name (Printf.sprintf "rdaemon-%d.%d" rank slot)
        || String.equal name (Printf.sprintf "rmpi-%d.%d" rank slot)
      then begin
        Proc.kill p;
        incr killed
      end)
    (Observe.all_tasks cluster);
  !killed

let at run t f = Engine.schedule run.eng ~delay:t f |> ignore

(* ------------------------------------------------------------------ *)

let test_failure_free_parity_with_vcl () =
  (* Replication must produce the exact checksums the Vcl backend
     produces fault-free (both equal the sequential reference). *)
  let rep = setup () in
  run_until rep 100.0;
  assert_completed rep;
  assert_checksums rep;
  let eng = Engine.create ~seed:11L () in
  let vcl_results = Hashtbl.create 16 in
  let app =
    instrument_app (Workload.Stencil.app test_params ~n_ranks:4) vcl_results
  in
  let cfg =
    { (test_cfg ~n_ranks:4 ()) with Mpivcl.Config.protocol = Mpivcl.Config.Non_blocking }
  in
  let vcl = Mpivcl.Deploy.launch eng ~cfg ~app ~state_bytes:1_000_000 ~n_compute:6 () in
  ignore (Engine.run ~until:100.0 eng);
  (match Mpivcl.Dispatcher.peek_outcome vcl.Mpivcl.Deploy.dispatcher with
  | Some (Mpivcl.Dispatcher.Completed _) -> ()
  | _ -> Alcotest.fail "vcl baseline did not complete");
  Hashtbl.iter
    (fun rank checksum ->
      check_int
        (Printf.sprintf "rank %d parity" rank)
        (Hashtbl.find vcl_results rank)
        checksum)
    rep.results

let test_failure_free_no_failovers () =
  let run = setup ~seed:3L () in
  run_until run 100.0;
  assert_completed run;
  check_int "no failovers" 0 (Mpirep.Rdispatcher.failovers (dispatcher run));
  check_int "no respawns" 0 (Mpirep.Rdispatcher.respawns (dispatcher run));
  check_bool "not exhausted" false (Mpirep.Rdispatcher.exhausted (dispatcher run))

let test_single_failover_no_rollback () =
  (* Kill one replica mid-run: the survivor carries the rank, the run
     completes with correct checksums and ZERO recovery waves — the
     replication family's defining contrast with rollback recovery. *)
  let run = setup ~seed:5L () in
  at run 8.0 (fun () -> check_int "killed one replica" 2 (kill_replica run 2 0));
  run_until run 200.0;
  assert_completed run;
  assert_checksums run;
  check_bool "failover observed" true (Mpirep.Rdispatcher.failovers (dispatcher run) >= 1);
  check_bool "respawned" true (Mpirep.Rdispatcher.respawns (dispatcher run) >= 1);
  let t = trace run in
  check_bool "failover traced" true (Observe.count t ~event:"replica-failover" >= 1);
  check_bool "respawn traced" true (Observe.count t ~event:"replica-respawn" >= 1);
  check_int "no recovery waves" 0 (Observe.count t ~event:"recovery-start");
  check_int "no rollbacks" 0 (Observe.count t ~event:"recovery-complete")

let test_duplicate_suppression () =
  (* Sibling replicas multicast the same (src, tag) payloads, and the
     log flush after a respawn re-sends logged entries: receivers must
     drop every duplicate and still converge to the right checksums. *)
  let run = setup ~seed:5L () in
  at run 8.0 (fun () -> ignore (kill_replica run 2 0));
  run_until run 200.0;
  assert_completed run;
  assert_checksums run;
  check_bool "duplicates dropped" true
    (Observe.count (trace run) ~event:"duplicate-dropped" >= 1)

let test_exhaustion_direct () =
  (* Kill both replicas of rank 1 faster than the respawn latency
     (daemon re-registers ~0.4 s after death under the test config):
     the rank is uncovered, the failover window cannot be saved, and
     the dispatcher declares replication exhausted. *)
  let run = setup ~seed:9L () in
  at run 8.0 (fun () -> ignore (kill_replica run 1 0));
  at run 8.2 (fun () -> ignore (kill_replica run 1 1));
  run_until run 200.0;
  (match Mpirep.Rdispatcher.peek_outcome (dispatcher run) with
  | Some (Mpirep.Rdispatcher.Aborted _) -> ()
  | Some (Mpirep.Rdispatcher.Completed _) -> Alcotest.fail "run should not complete"
  | None -> Alcotest.fail "dispatcher should have aborted");
  check_bool "exhausted" true (Mpirep.Rdispatcher.exhausted (dispatcher run));
  check_bool "exhaustion traced" true
    (Observe.count (trace run) ~event:"replication-exhausted" >= 1)

let test_replica_split_scenario_is_buggy () =
  (* End-to-end through the FAIL pipeline: the replica-split scenario
     (gap 0) kills both replicas of one rank inside the failover window
     — classified Buggy, like the paper's frozen runs. *)
  let n_ranks = 4 in
  let scenario =
    Fail_lang.Paper_scenarios.replica_split ~n_machines:10 ~n_ranks ~rank:2 ~start:8
      ~gap:0
  in
  let app = Workload.Stencil.app test_params ~n_ranks in
  let spec =
    {
      (Failmpi.Run.default_spec ~app ~cfg:(test_cfg ~n_ranks ()) ~n_compute:10
         ~state_bytes:1_000_000)
      with
      Failmpi.Run.scenario = Some scenario;
      timeout = 200.0;
    }
  in
  let r = Failmpi.Run.execute spec in
  check_bool "buggy" true (r.Failmpi.Run.outcome = Failmpi.Run.Buggy);
  check_int "two faults" 2 r.Failmpi.Run.injected_faults;
  check_bool "exhaustion traced" true
    (Observe.count r.Failmpi.Run.trace ~event:"replication-exhausted" >= 1)

let test_replica_split_staggered_completes () =
  (* Same scenario with a gap beyond the respawn latency (~0.4 s under
     the test config): both kills are absorbed as independent failovers
     and the run completes. *)
  let n_ranks = 4 in
  let scenario =
    Fail_lang.Paper_scenarios.replica_split ~n_machines:10 ~n_ranks ~rank:2 ~start:8
      ~gap:4
  in
  let app = Workload.Stencil.app test_params ~n_ranks in
  let expected = Workload.Stencil.reference_checksum test_params ~n_ranks in
  let spec =
    {
      (Failmpi.Run.default_spec ~app ~cfg:(test_cfg ~n_ranks ()) ~n_compute:10
         ~state_bytes:1_000_000)
      with
      Failmpi.Run.scenario = Some scenario;
      timeout = 300.0;
    }
  in
  let r = Failmpi.Run.execute ~expected_checksum:expected spec in
  check_bool "completed" true
    (match r.Failmpi.Run.outcome with Failmpi.Run.Completed _ -> true | _ -> false);
  check_bool "checksums ok" true (r.Failmpi.Run.checksum_ok = Some true);
  check_bool "two failovers" true (r.Failmpi.Run.metrics.Failmpi.Backend.Metrics.failovers >= 2);
  check_int "no recovery waves" 0 (Failmpi.Run.recoveries r)

let test_determinism_same_seed_same_trace () =
  let go () =
    let run = setup ~seed:21L () in
    at run 8.0 (fun () -> ignore (kill_replica run 2 0));
    run_until run 200.0;
    assert_completed run;
    Trace.length (trace run)
  in
  check_int "same seed, same trace length" (go ()) (go ())

let test_degree_must_fit () =
  Alcotest.check_raises "degree * ranks must fit"
    (Invalid_argument
       "Mpirep.Deploy.launch: 12 replicas (degree 3 x 4 ranks) need more than 10 \
        compute hosts")
    (fun () -> ignore (setup ~degree:3 ()))

(* Send log: the sender-side numbering a respawned replica inherits. *)

let msg ~dst ~tag = { Mpivcl.Message.src = 0; dst; tag; data = tag; bytes = 100 }

(* Destination 1 gets tags 10, 11, 12; destination 2 gets tag 10. *)
let donor_log () =
  let log = Mpirep.Send_log.create () in
  List.iter
    (fun (dst, tag) -> ignore (Mpirep.Send_log.ssn log (msg ~dst ~tag)))
    [ (1, 10); (2, 10); (1, 11); (1, 12) ];
  log

let image_lists =
  let app_msg =
    Alcotest.testable
      (fun ppf (m : Mpivcl.Message.app_msg) ->
        Format.fprintf ppf "%d->%d tag %d" m.src m.dst m.tag)
      ( = )
  in
  let entry = Alcotest.(pair int app_msg) in
  Alcotest.(pair (list (pair int (list entry))) (list (pair int int)))

let imported log =
  let send_log, next_ssn = Mpirep.Send_log.export log in
  let copy = Mpirep.Send_log.create () in
  Mpirep.Send_log.import copy ~send_log ~next_ssn;
  copy

let test_send_log_reexecuted_tag () =
  let donor = donor_log () in
  let copy = imported donor in
  check_int "logged tag keeps the donor's ssn" 2 (Mpirep.Send_log.ssn copy (msg ~dst:1 ~tag:11));
  check_int "first logged tag" 1 (Mpirep.Send_log.ssn copy (msg ~dst:1 ~tag:10));
  check_int "other destination" 1 (Mpirep.Send_log.ssn copy (msg ~dst:2 ~tag:10));
  check image_lists "re-executions do not grow the log" (Mpirep.Send_log.export donor)
    (Mpirep.Send_log.export copy);
  check_int "a new tag continues the donor's numbering" 4
    (Mpirep.Send_log.ssn copy (msg ~dst:1 ~tag:13))

let test_send_log_consecutive () =
  let log = Mpirep.Send_log.create () in
  let ssns =
    List.map
      (fun (dst, tag) -> Mpirep.Send_log.ssn log (msg ~dst ~tag))
      [ (1, 10); (2, 10); (1, 11); (2, 11); (1, 12); (3, 10) ]
  in
  check Alcotest.(list int) "per-destination numbering from 1" [ 1; 1; 2; 2; 3; 1 ] ssns;
  check_int "a repeated tag is not logged again" 2 (Mpirep.Send_log.ssn log (msg ~dst:2 ~tag:11));
  check_int "and does not use up an ssn" 3 (Mpirep.Send_log.ssn log (msg ~dst:2 ~tag:12))

let test_send_log_above () =
  let log = donor_log () in
  ignore (Mpirep.Send_log.ssn log (msg ~dst:1 ~tag:13));
  let above bound =
    List.map
      (fun (ssn, (m : Mpivcl.Message.app_msg)) -> (ssn, m.tag))
      (Mpirep.Send_log.above log ~dst:1 ~bound)
  in
  let pairs = Alcotest.(list (pair int int)) in
  check pairs "everything above 0, ascending" [ (1, 10); (2, 11); (3, 12); (4, 13) ] (above 0);
  check pairs "strictly above the bound" [ (3, 12); (4, 13) ] (above 2);
  check pairs "nothing above the last ssn" [] (above 4);
  check_int "unknown destination" 0 (List.length (Mpirep.Send_log.above log ~dst:7 ~bound:0))

let test_send_log_round_trip () =
  let donor = donor_log () in
  let lists = Mpirep.Send_log.export donor in
  let send_log, next_ssn = lists in
  check
    Alcotest.(list (pair int (list int)))
    "entries highest ssn first"
    [ (1, [ 3; 2; 1 ]); (2, [ 1 ]) ]
    (List.sort compare (List.map (fun (dst, es) -> (dst, List.map fst es)) send_log));
  check Alcotest.(list (pair int int)) "next ssns" [ (1, 4); (2, 2) ] (List.sort compare next_ssn);
  check image_lists "export . import = id" lists (Mpirep.Send_log.export (imported donor));
  check image_lists "twice" lists (Mpirep.Send_log.export (imported (imported donor)));
  (* enough destinations for the tables to resize and share buckets *)
  let wide = Mpirep.Send_log.create () in
  for tag = 1 to 3 do
    for dst = 0 to 47 do
      ignore (Mpirep.Send_log.ssn wide (msg ~dst:((dst * 7) mod 48) ~tag))
    done
  done;
  check image_lists "48 destinations" (Mpirep.Send_log.export wide)
    (Mpirep.Send_log.export (imported wide))

let () =
  Alcotest.run "mpirep"
    [
      ( "replication",
        [
          Alcotest.test_case "failure-free parity with vcl" `Quick
            test_failure_free_parity_with_vcl;
          Alcotest.test_case "failure-free no failovers" `Quick
            test_failure_free_no_failovers;
          Alcotest.test_case "single failover, no rollback" `Quick
            test_single_failover_no_rollback;
          Alcotest.test_case "duplicate suppression" `Quick test_duplicate_suppression;
          Alcotest.test_case "exhaustion on double kill" `Quick test_exhaustion_direct;
          Alcotest.test_case "replica-split scenario is buggy" `Quick
            test_replica_split_scenario_is_buggy;
          Alcotest.test_case "staggered split completes" `Quick
            test_replica_split_staggered_completes;
          Alcotest.test_case "determinism by seed" `Quick
            test_determinism_same_seed_same_trace;
          Alcotest.test_case "degree must fit cluster" `Quick test_degree_must_fit;
        ] );
      ( "send-log",
        [
          Alcotest.test_case "re-executed tag keeps its ssn" `Quick
            test_send_log_reexecuted_tag;
          Alcotest.test_case "consecutive ssns per destination" `Quick
            test_send_log_consecutive;
          Alcotest.test_case "above is ascending and strict" `Quick test_send_log_above;
          Alcotest.test_case "image lists round-trip" `Quick test_send_log_round_trip;
        ] );
    ]
