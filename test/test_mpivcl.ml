(* Integration tests for the MPICH-Vcl substrate: failure-free runs,
   rollback-recovery correctness (checksum-validated), checkpoint server
   behaviour, the dispatcher recovery bug and its fix, the blocking
   protocol variant and the daemons' duplicate-suppression set. *)

open Simkern
open Simos
open Mpivcl

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

(* A small, fast stencil configuration for tests. *)
let test_params = { Workload.Stencil.iterations = 30; compute_time = 0.5; msg_bytes = 10_000; jitter = 0.0 }

let test_cfg ~n_ranks =
  {
    (Config.default ~n_ranks) with
    Config.wave_interval = 5.0;
    server_bandwidth = 1e8;
    init_delay_min = 0.1;
    init_delay_max = 0.1;
    ssh_delay = 0.3;
    relaunch_delay = 0.0;
    term_lag_min = 0.2;
    term_lag_max = 2.0;
    term_straggler_prob = 0.0;
    store_jitter = 0.0;
  }

(* Captures each rank's final state after its last (re-)execution. *)
let instrument_app app results =
  {
    app with
    App.main =
      (fun ctx ->
        app.App.main ctx;
        Hashtbl.replace results ctx.App.rank ctx.App.state.(2));
  }

type run = {
  eng : Engine.t;
  handle : Deploy.handle;
  results : (int, int) Hashtbl.t;
  reference : int;
  n_ranks : int;
}

let setup ?(seed = 7L) ?(n_ranks = 4) ?(n_compute = 6) ?cfg ?params () =
  let params = Option.value ~default:test_params params in
  let cfg = match cfg with Some c -> c | None -> test_cfg ~n_ranks in
  let eng = Engine.create ~seed () in
  let results = Hashtbl.create 16 in
  let app = instrument_app (Workload.Stencil.app params ~n_ranks) results in
  let handle = Deploy.launch eng ~cfg ~app ~state_bytes:1_000_000 ~n_compute () in
  let reference = Workload.Stencil.reference_checksum params ~n_ranks in
  { eng; handle; results; reference; n_ranks }

let run_until run t = ignore (Engine.run ~until:t run.eng)

let assert_completed ?(msg = "completed") run =
  match Dispatcher.peek_outcome run.handle.Deploy.dispatcher with
  | Some (Dispatcher.Completed _) -> ()
  | Some (Dispatcher.Aborted reason) -> Alcotest.failf "%s: aborted: %s" msg reason
  | None -> Alcotest.failf "%s: still running" msg

let assert_checksums run =
  check_int "all ranks reported" run.n_ranks (Hashtbl.length run.results);
  Hashtbl.iter
    (fun rank checksum ->
      check_int (Printf.sprintf "rank %d checksum" rank) run.reference checksum)
    run.results

(* Kill the whole MPI task of [rank] (communication daemon + computation
   process), as a FAIL-MPI halt does. *)
let kill_rank run rank =
  let cluster = Deploy.cluster run.handle in
  let killed = ref 0 in
  List.iter
    (fun (h : Cluster.host) ->
      List.iter
        (fun p ->
          let name = Proc.name p in
          if
            String.equal name (Printf.sprintf "vdaemon-%d" rank)
            || String.equal name (Printf.sprintf "mpi-%d" rank)
          then begin
            Proc.kill p;
            incr killed
          end)
        (Cluster.tasks cluster ~host:h.Cluster.host_id))
    (Cluster.hosts cluster);
  !killed

(* ------------------------------------------------------------------ *)

let test_failure_free_completes () =
  let run = setup () in
  run_until run 100.0;
  assert_completed run;
  assert_checksums run

let test_failure_free_9_ranks () =
  let run = setup ~n_ranks:9 ~n_compute:11 () in
  run_until run 100.0;
  assert_completed run;
  assert_checksums run

let test_single_rank () =
  let run = setup ~n_ranks:1 ~n_compute:2 () in
  run_until run 100.0;
  assert_completed run;
  assert_checksums run

let test_waves_commit () =
  let run = setup () in
  run_until run 100.0;
  check_bool "at least two committed waves" true
    (match run.handle.Deploy.scheduler with
    | Some s -> Scheduler.committed_count s >= 2
    | None -> false)

let test_frequent_waves_correct () =
  (* Stress the non-blocking cut path: waves far more frequent than
     iterations. *)
  let cfg = { (test_cfg ~n_ranks:4) with Config.wave_interval = 1.0 } in
  let run = setup ~cfg () in
  run_until run 120.0;
  assert_completed run;
  assert_checksums run

let test_single_fault_recovers () =
  let run = setup () in
  Engine.schedule run.eng ~delay:8.0 (fun () -> ignore (kill_rank run 2)) |> ignore;
  run_until run 300.0;
  check_bool "one recovery" true (Dispatcher.recoveries run.handle.Deploy.dispatcher >= 1);
  assert_completed run;
  assert_checksums run

let test_fault_before_first_commit () =
  (* Failure before any wave committed: everything restarts from
     scratch. *)
  let cfg = { (test_cfg ~n_ranks:4) with Config.wave_interval = 1000.0 } in
  let run = setup ~cfg () in
  Engine.schedule run.eng ~delay:5.0 (fun () -> ignore (kill_rank run 1)) |> ignore;
  run_until run 300.0;
  assert_completed run;
  assert_checksums run

let test_sequential_faults_recover () =
  let run = setup () in
  List.iter
    (fun (delay, rank) ->
      Engine.schedule run.eng ~delay (fun () -> ignore (kill_rank run rank)) |> ignore)
    [ (7.0, 0); (13.0, 3); (19.0, 1) ];
  run_until run 400.0;
  check_bool "three recoveries" true (Dispatcher.recoveries run.handle.Deploy.dispatcher >= 3);
  assert_completed run;
  assert_checksums run

let test_fault_on_spare_rank_moves () =
  let run = setup () in
  Engine.schedule run.eng ~delay:8.0 (fun () -> ignore (kill_rank run 2)) |> ignore;
  run_until run 300.0;
  assert_completed run;
  (* The failed rank must have been reallocated to a spare host. *)
  let trace = Engine.trace run.eng in
  check_bool "reallocated" true (Trace.count trace ~event:"reallocate" >= 1)

let test_blocking_protocol () =
  let cfg = { (test_cfg ~n_ranks:4) with Config.protocol = Config.Blocking } in
  let run = setup ~cfg () in
  Engine.schedule run.eng ~delay:9.0 (fun () -> ignore (kill_rank run 1)) |> ignore;
  run_until run 300.0;
  assert_completed run;
  assert_checksums run

(* Engineer the recovery race: kill a rank, then kill its relaunched
   daemon shortly after it re-registers, while old-wave daemons are still
   stopping. *)
let engineer_race ~buggy ~seed =
  let cfg = { (test_cfg ~n_ranks:4) with Config.dispatcher_buggy = buggy } in
  let run = setup ~seed ~cfg () in
  Engine.schedule run.eng ~delay:8.0 (fun () -> ignore (kill_rank run 2)) |> ignore;
  (* The replacement daemon registers after ~ssh (0.3 s) + handshake
     (0.1 s); old daemons take 0.2..2 s to stop. Kill at +0.9 s. *)
  Engine.schedule run.eng ~delay:8.9 (fun () -> ignore (kill_rank run 2)) |> ignore;
  run_until run 400.0;
  run

let test_buggy_dispatcher_freezes () =
  let run = engineer_race ~buggy:true ~seed:11L in
  check_bool "dispatcher confused" true (Dispatcher.confused run.handle.Deploy.dispatcher);
  check_bool "frozen, not completed" true
    (Dispatcher.peek_outcome run.handle.Deploy.dispatcher = None)

let test_fixed_dispatcher_survives () =
  let run = engineer_race ~buggy:false ~seed:11L in
  check_bool "not confused" false (Dispatcher.confused run.handle.Deploy.dispatcher);
  assert_completed run ~msg:"fixed dispatcher";
  assert_checksums run

let test_spawn_kill_retries () =
  (* Killing the daemon before it registers must lead to a clean retry,
     not to confusion (the paper's Figure 9 "clean" cases). *)
  let run = setup () in
  Engine.schedule run.eng ~delay:8.0 (fun () -> ignore (kill_rank run 2)) |> ignore;
  (* Relaunch ssh takes 0.3 s; kill during it (pre-Hello). *)
  Engine.schedule run.eng ~delay:8.35 (fun () -> ignore (kill_rank run 2)) |> ignore;
  run_until run 400.0;
  check_bool "never confused" false (Dispatcher.confused run.handle.Deploy.dispatcher);
  assert_completed run;
  assert_checksums run

(* ------------------------------------------------------------------ *)
(* Sender-based message logging (MPICH-V2-style) *)

let v2_cfg ~n_ranks = { (test_cfg ~n_ranks) with Config.protocol = Config.Sender_logging }

let test_v2_failure_free () =
  let run = setup ~cfg:(v2_cfg ~n_ranks:4) () in
  run_until run 100.0;
  assert_completed run;
  assert_checksums run;
  (* Independent checkpoints happened. *)
  let trace = Engine.trace run.eng in
  check_bool "independent checkpoints" true
    (Trace.count trace ~event:"checkpoint-committed" >= 4)

let test_v2_single_fault_restarts_only_failed () =
  let run = setup ~cfg:(v2_cfg ~n_ranks:4) () in
  Engine.schedule run.eng ~delay:8.0 (fun () -> ignore (kill_rank run 2)) |> ignore;
  run_until run 300.0;
  assert_completed run;
  assert_checksums run;
  let trace = Engine.trace run.eng in
  check_int "no termination orders" 0 (Trace.count trace ~event:"terminate-order");
  check_int "no global recovery" 0 (Trace.count trace ~event:"recovery-start");
  check_bool "failed rank resumed individually" true
    (Trace.count trace ~event:"rank-resumed" >= 1);
  check_bool "log resend happened" true (Trace.count trace ~event:"resend" >= 1)

let test_v2_fault_before_first_checkpoint () =
  let cfg = { (v2_cfg ~n_ranks:4) with Config.wave_interval = 1000.0 } in
  let run = setup ~cfg () in
  Engine.schedule run.eng ~delay:6.0 (fun () -> ignore (kill_rank run 1)) |> ignore;
  run_until run 300.0;
  assert_completed run;
  assert_checksums run

let test_v2_sequential_faults () =
  let run = setup ~cfg:(v2_cfg ~n_ranks:4) () in
  List.iter
    (fun (delay, rank) ->
      Engine.schedule run.eng ~delay (fun () -> ignore (kill_rank run rank)) |> ignore)
    [ (6.0, 0); (11.0, 3); (16.0, 0) ];
  run_until run 300.0;
  assert_completed run;
  assert_checksums run;
  check_bool "three restarts" true (Dispatcher.recoveries run.handle.Deploy.dispatcher >= 3)

let test_v2_concurrent_faults () =
  (* Two ranks down at once: each recovers from its own image; the
     checkpointed send logs make the resends possible. *)
  let run = setup ~cfg:(v2_cfg ~n_ranks:4) () in
  Engine.schedule run.eng ~delay:12.0 (fun () ->
      ignore (kill_rank run 1);
      ignore (kill_rank run 2))
  |> ignore;
  run_until run 300.0;
  assert_completed run;
  assert_checksums run

let prop_v2_random_faults_correct =
  QCheck.Test.make ~name:"V2: random faults complete correctly" ~count:15
    QCheck.(pair (int_bound 1_000_000) (list_of_size (Gen.int_range 1 4) (pair (int_bound 3) (float_range 5.0 40.0))))
    (fun (seed, faults) ->
      let run = setup ~seed:(Int64.of_int seed) ~cfg:(v2_cfg ~n_ranks:4) () in
      List.iter
        (fun (rank, delay) ->
          Engine.schedule run.eng ~delay (fun () -> ignore (kill_rank run rank)) |> ignore)
        faults;
      run_until run 2000.0;
      match Dispatcher.peek_outcome run.handle.Deploy.dispatcher with
      | Some (Dispatcher.Completed _) ->
          Hashtbl.length run.results = run.n_ranks
          && Hashtbl.fold (fun _ v acc -> acc && v = run.reference) run.results true
      | Some (Dispatcher.Aborted _) | None -> false)

(* ------------------------------------------------------------------ *)
(* Checkpoint server unit tests *)

let mk_image ~rank ~wave ~bytes =
  {
    Message.img_rank = rank;
    img_wave = wave;
    img_state = [| wave; rank |];
    img_buffer = [];
    img_redelivery = [];
    img_logged = [];
    img_seen = [];
    img_received = [];
    img_send_log = [];
    img_next_ssn = [];
    img_bytes = bytes;
  }

let with_server f =
  let eng = Engine.create () in
  let cluster = Cluster.create eng ~size:3 in
  let net = Simnet.Net.create eng () in
  let server = Ckpt_server.spawn eng cluster net ~host:0 ~bandwidth:1e6 () in
  f eng cluster net server

let test_server_store_commit_fetch () =
  with_server (fun eng cluster net server ->
      let got = ref None in
      ignore
        (Cluster.spawn_on cluster ~host:1 ~name:"client" (fun () ->
             match Simnet.Net.connect net ~host:1 ~to_host:0 ~to_port:Config.server_port with
             | Error `Refused -> Alcotest.fail "refused"
             | Ok conn ->
                 ignore (Simnet.Net.send conn (Message.Store { image = mk_image ~rank:3 ~wave:1 ~bytes:1_000_000 }));
                 (match Simnet.Net.recv conn with
                 | Simnet.Net.Data (Message.Store_done { wave = 1 }) -> ()
                 | _ -> Alcotest.fail "expected Store_done");
                 (* Not committed yet: fetch must find nothing. *)
                 ignore (Simnet.Net.send conn (Message.Fetch { rank = 3; local_wave = None }));
                 (match Simnet.Net.recv conn with
                 | Simnet.Net.Data (Message.Fetch_image { image = None }) -> ()
                 | _ -> Alcotest.fail "expected empty fetch before commit");
                 ignore (Simnet.Net.send conn (Message.Commit { wave = 1 }));
                 Proc.sleep 0.1;
                 ignore (Simnet.Net.send conn (Message.Fetch { rank = 3; local_wave = None }));
                 (match Simnet.Net.recv conn with
                 | Simnet.Net.Data (Message.Fetch_image { image = Some img }) ->
                     got := Some img.Message.img_wave
                 | _ -> Alcotest.fail "expected image after commit")));
      ignore (Engine.run ~until:60.0 eng);
      check_bool "fetched wave 1" true (!got = Some 1);
      check_bool "committed introspection" true (Ckpt_server.committed_wave server ~rank:3 = Some 1))

let test_server_transfer_takes_time () =
  with_server (fun eng cluster net _server ->
      let stored_at = ref 0.0 in
      ignore
        (Cluster.spawn_on cluster ~host:1 ~name:"client" (fun () ->
             match Simnet.Net.connect net ~host:1 ~to_host:0 ~to_port:Config.server_port with
             | Error `Refused -> Alcotest.fail "refused"
             | Ok conn ->
                 (* 2 MB at 1 MB/s: the ack must arrive after ~2 s. *)
                 ignore
                   (Simnet.Net.send conn (Message.Store { image = mk_image ~rank:0 ~wave:1 ~bytes:2_000_000 }));
                 (match Simnet.Net.recv conn with
                 | Simnet.Net.Data (Message.Store_done _) -> stored_at := Engine.now eng
                 | _ -> Alcotest.fail "expected Store_done")));
      ignore (Engine.run ~until:30.0 eng);
      check_bool "took about 2s" true (!stored_at >= 2.0 && !stored_at < 2.5))

let test_server_use_local () =
  with_server (fun eng cluster net _server ->
      let used_local = ref false in
      ignore
        (Cluster.spawn_on cluster ~host:1 ~name:"client" (fun () ->
             match Simnet.Net.connect net ~host:1 ~to_host:0 ~to_port:Config.server_port with
             | Error `Refused -> Alcotest.fail "refused"
             | Ok conn ->
                 ignore (Simnet.Net.send conn (Message.Store { image = mk_image ~rank:0 ~wave:4 ~bytes:1000 }));
                 (match Simnet.Net.recv conn with
                 | Simnet.Net.Data (Message.Store_done _) -> ()
                 | _ -> Alcotest.fail "no store ack");
                 ignore (Simnet.Net.send conn (Message.Commit { wave = 4 }));
                 Proc.sleep 0.1;
                 ignore (Simnet.Net.send conn (Message.Fetch { rank = 0; local_wave = Some 4 }));
                 (match Simnet.Net.recv conn with
                 | Simnet.Net.Data (Message.Fetch_use_local { wave = 4 }) -> used_local := true
                 | _ -> ())));
      ignore (Engine.run ~until:30.0 eng);
      check_bool "server told client to use local disk" true !used_local)

(* ------------------------------------------------------------------ *)
(* Storage plane: torn-write detection, mirroring, resync *)

(* Kill the server at instants spanning the whole wave-2 store window —
   before the transfer, during it, and after the seal — with wave 1
   already committed. Whatever the instant, the respawned server's
   restart scan must leave the committed image exactly at wave 1:
   never torn, never regressed, never absent. *)
let test_commit_invariant_under_kill_sweep () =
  List.iter
    (fun kill_at ->
      let eng = Engine.create () in
      let cluster = Cluster.create eng ~size:3 in
      let net = Simnet.Net.create eng () in
      let server = Ckpt_server.spawn eng cluster net ~host:0 ~bandwidth:1e6 ~respawn:5.0 () in
      ignore
        (Cluster.spawn_on cluster ~host:1 ~name:"client" (fun () ->
             match Simnet.Net.connect net ~host:1 ~to_host:0 ~to_port:Config.server_port with
             | Error `Refused -> Alcotest.fail "refused"
             | Ok conn ->
                 ignore
                   (Simnet.Net.send conn
                      (Message.Store { image = mk_image ~rank:3 ~wave:1 ~bytes:500_000 }));
                 (match Simnet.Net.recv conn with
                 | Simnet.Net.Data (Message.Store_done { wave = 1 }) -> ()
                 | _ -> Alcotest.fail "expected Store_done for wave 1");
                 ignore (Simnet.Net.send conn (Message.Commit { wave = 1 }));
                 Proc.sleep 0.5;
                 (* 2 MB at 1 MB/s: the wave-2 store window is ~[1, 3] s. *)
                 ignore
                   (Simnet.Net.send conn
                      (Message.Store { image = mk_image ~rank:3 ~wave:2 ~bytes:2_000_000 }));
                 ignore (Simnet.Net.recv conn)));
      ignore (Engine.schedule eng ~delay:kill_at (fun () -> Ckpt_server.inject_kill server));
      ignore (Engine.run ~until:60.0 eng);
      let label = Printf.sprintf "kill at %.2f" kill_at in
      check_bool (label ^ ": committed image stays at wave 1") true
        (Ckpt_server.committed_wave server ~rank:3 = Some 1);
      check_bool (label ^ ": no torn slot survives the restart scan") true
        (not (Ckpt_server.pending_torn server ~rank:3));
      check_int (label ^ ": server respawned once") 1 (Ckpt_server.respawns server);
      (* A kill well inside the transfer must leave — and be seen to
         discard — exactly one torn image. *)
      if kill_at >= 1.5 && kill_at <= 2.5 then
        check_int (label ^ ": torn image discarded") 1 (Ckpt_server.torn_discarded server);
      Ckpt_server.halt server)
    [ 0.9; 1.1; 1.5; 2.0; 2.5; 2.9; 3.2; 4.0 ]

(* Two mirrored servers in a ring. *)
let with_server_pair ?respawn f =
  let eng = Engine.create () in
  let cluster = Cluster.create eng ~size:4 in
  let net = Simnet.Net.create eng () in
  let hosts = [| 0; 1 |] in
  let spawn ~host ~index =
    Ckpt_server.spawn eng cluster net ~host ~bandwidth:1e6 ~index ~server_hosts:hosts
      ~replicas:2 ?respawn ()
  in
  f eng cluster net (spawn ~host:0 ~index:0) (spawn ~host:1 ~index:1)

let server_conn net ~host ~to_host =
  match Simnet.Net.connect net ~host ~to_host ~to_port:Config.server_port with
  | Error `Refused -> Alcotest.fail "server refused"
  | Ok conn -> conn

(* A store ack from the primary promises the mirror already holds the
   sealed copy: committing on the mirror alone must produce the image. *)
let test_mirrored_store_reaches_mirror () =
  with_server_pair (fun eng cluster net a b ->
      let fetched = ref None in
      ignore
        (Cluster.spawn_on cluster ~host:2 ~name:"client" (fun () ->
             (* rank 2: primary index 0 (host 0), mirror index 1 *)
             let conn = server_conn net ~host:2 ~to_host:0 in
             ignore
               (Simnet.Net.send conn
                  (Message.Store { image = mk_image ~rank:2 ~wave:1 ~bytes:100_000 }));
             (match Simnet.Net.recv conn with
             | Simnet.Net.Data (Message.Store_done { wave = 1 }) -> ()
             | _ -> Alcotest.fail "expected Store_done");
             let mirror = server_conn net ~host:2 ~to_host:1 in
             ignore (Simnet.Net.send mirror (Message.Commit { wave = 1 }));
             Proc.sleep 0.1;
             ignore (Simnet.Net.send mirror (Message.Fetch { rank = 2; local_wave = None }));
             match Simnet.Net.recv mirror with
             | Simnet.Net.Data (Message.Fetch_image { image = Some img }) ->
                 fetched := Some img.Message.img_wave
             | _ -> Alcotest.fail "mirror had no image to serve"));
      ignore (Engine.run ~until:30.0 eng);
      check_bool "mirror serves the image the primary acked" true (!fetched = Some 1);
      check_bool "mirror committed introspection" true
        (Ckpt_server.committed_wave b ~rank:2 = Some 1);
      ignore a)

(* Images committed while a server was dead reach it through the
   restart resync pull — the respawned primary serves its shard again
   without any new store. *)
let test_respawned_server_resyncs_shard () =
  with_server_pair ~respawn:3.0 (fun eng cluster net a b ->
      ignore
        (Cluster.spawn_on cluster ~host:2 ~name:"client" (fun () ->
             (* wave 1 through the primary while it is alive *)
             let conn = server_conn net ~host:2 ~to_host:0 in
             ignore
               (Simnet.Net.send conn
                  (Message.Store { image = mk_image ~rank:2 ~wave:1 ~bytes:100_000 }));
             (match Simnet.Net.recv conn with
             | Simnet.Net.Data (Message.Store_done _) -> ()
             | _ -> Alcotest.fail "expected Store_done");
             ignore (Simnet.Net.send conn (Message.Commit { wave = 1 }));
             let mirror = server_conn net ~host:2 ~to_host:1 in
             ignore (Simnet.Net.send mirror (Message.Commit { wave = 1 }));
             Proc.sleep 1.0;
             Ckpt_server.inject_kill a;
             (* wave 2 lands on the survivor while the primary is down
                (the daemons' fetch/store failover path) *)
             Proc.sleep 1.0;
             let surv = server_conn net ~host:2 ~to_host:1 in
             ignore
               (Simnet.Net.send surv
                  (Message.Store { image = mk_image ~rank:2 ~wave:2 ~bytes:100_000 }));
             (match Simnet.Net.recv surv with
             | Simnet.Net.Data (Message.Store_done _) -> ()
             | _ -> Alcotest.fail "expected survivor Store_done");
             ignore (Simnet.Net.send surv (Message.Commit { wave = 2 }))));
      ignore (Engine.run ~until:30.0 eng);
      check_int "primary respawned" 1 (Ckpt_server.respawns a);
      check_bool "respawn pulled the missed wave" true (Ckpt_server.resyncs a >= 1);
      check_bool "primary serves wave 2 it never stored" true
        (Ckpt_server.committed_wave a ~rank:2 = Some 2);
      check_bool "survivor unchanged" true (Ckpt_server.committed_wave b ~rank:2 = Some 2))

(* ------------------------------------------------------------------ *)
(* Local disk *)

let test_local_disk_retention () =
  let disk = Local_disk.create () in
  Local_disk.store disk ~host:1 (mk_image ~rank:0 ~wave:1 ~bytes:10);
  Local_disk.store disk ~host:1 (mk_image ~rank:0 ~wave:2 ~bytes:10);
  Local_disk.store disk ~host:1 (mk_image ~rank:0 ~wave:3 ~bytes:10);
  check_bool "newest" true (Local_disk.newest_wave disk ~host:1 ~rank:0 = Some 3);
  check_bool "wave 2 kept" true (Local_disk.lookup disk ~host:1 ~rank:0 ~wave:2 <> None);
  check_bool "wave 1 evicted (two-file alternation)" true
    (Local_disk.lookup disk ~host:1 ~rank:0 ~wave:1 = None);
  check_bool "other host empty" true (Local_disk.newest_wave disk ~host:2 ~rank:0 = None)

(* ------------------------------------------------------------------ *)
(* Property: random fault schedules with the fixed dispatcher always
   terminate with the correct checksum. *)

let prop_random_faults_correct =
  QCheck.Test.make ~name:"random faults: fixed dispatcher completes correctly" ~count:15
    QCheck.(pair (int_bound 1_000_000) (list_of_size (Gen.int_range 1 4) (pair (int_bound 3) (float_range 5.0 60.0))))
    (fun (seed, faults) ->
      let cfg = { (test_cfg ~n_ranks:4) with Config.dispatcher_buggy = false } in
      let run = setup ~seed:(Int64.of_int seed) ~cfg () in
      List.iter
        (fun (rank, delay) ->
          Engine.schedule run.eng ~delay (fun () -> ignore (kill_rank run rank)) |> ignore)
        faults;
      run_until run 2000.0;
      match Dispatcher.peek_outcome run.handle.Deploy.dispatcher with
      | Some (Dispatcher.Completed _) ->
          Hashtbl.length run.results = run.n_ranks
          && Hashtbl.fold (fun _ v acc -> acc && v = run.reference) run.results true
      | Some (Dispatcher.Aborted _) | None -> false)

(* ------------------------------------------------------------------ *)
(* Matching queue *)

(* The list matcher the daemons used before [Matching]: one buffer and
   one parked list in arrival order, scanned for the first entry with the
   envelope. It is the reference the queue must agree with. *)
module List_matching = struct
  type 'r t = {
    mutable buffer : Message.app_msg list;
    mutable parked : (int * int * int * 'r) list;
  }

  let create () = { buffer = []; parked = [] }

  let deliver q (m : Message.app_msg) =
    let rec split acc = function
      | [] -> None
      | (dst, src, tag, reply) :: rest
        when dst = m.Message.dst && src = m.Message.src && tag = m.Message.tag ->
          q.parked <- List.rev_append acc rest;
          Some reply
      | r :: rest -> split (r :: acc) rest
    in
    match split [] q.parked with
    | Some reply -> Some reply
    | None ->
        q.buffer <- q.buffer @ [ m ];
        None

  let serve q ~dst ~src ~tag reply =
    let rec split acc = function
      | [] -> None
      | (m : Message.app_msg) :: rest
        when m.Message.dst = dst && m.Message.src = src && m.Message.tag = tag ->
          q.buffer <- List.rev_append acc rest;
          Some m
      | m :: rest -> split (m :: acc) rest
    in
    match split [] q.buffer with
    | Some m -> Some m
    | None ->
        q.parked <- q.parked @ [ (dst, src, tag, reply) ];
        None

  let clear q =
    q.buffer <- [];
    q.parked <- []

  let restore q msgs = q.buffer <- msgs
end

type match_op =
  | Deliver of int * int * int
  | Serve of int * int * int
  | Clear
  | Restore of (int * int * int) list

let pp_match_op = function
  | Deliver (d, s, t) -> Printf.sprintf "deliver(%d,%d,%d)" d s t
  | Serve (d, s, t) -> Printf.sprintf "serve(%d,%d,%d)" d s t
  | Clear -> "clear"
  | Restore envs ->
      Printf.sprintf "restore[%s]"
        (String.concat ";" (List.map (fun (d, s, t) -> Printf.sprintf "%d,%d,%d" d s t) envs))

(* Few envelopes, so that keys collide and FIFO order per key matters. *)
let match_op_gen =
  let open QCheck.Gen in
  let env = triple (int_bound 1) (int_bound 2) (int_bound 1) in
  frequency
    [
      (8, map (fun (d, s, t) -> Deliver (d, s, t)) env);
      (8, map (fun (d, s, t) -> Serve (d, s, t)) env);
      (1, return Clear);
      (1, map (fun envs -> Restore envs) (list_size (int_bound 4) env));
    ]

let prop_matching_model =
  QCheck.Test.make ~name:"matching queue agrees with the list matcher" ~count:500
    (QCheck.make
       ~print:(fun ops -> String.concat " " (List.map pp_match_op ops))
       QCheck.Gen.(list_size (int_bound 80) match_op_gen))
    (fun ops ->
      let q = Matching.create () and r = List_matching.create () in
      (* Every message and receive carries a fresh id, so a reply names
         exactly which one matched. *)
      let next = ref 0 in
      let fresh () =
        incr next;
        !next
      in
      let msg (dst, src, tag) = { Message.src; dst; tag; data = fresh (); bytes = 0 } in
      List.for_all
        (fun op ->
          let agree =
            match op with
            | Deliver (dst, src, tag) ->
                let m = msg (dst, src, tag) in
                Matching.deliver q m = List_matching.deliver r m
            | Serve (dst, src, tag) ->
                let id = fresh () in
                Matching.serve q ~dst ~src ~tag id = List_matching.serve r ~dst ~src ~tag id
            | Clear ->
                Matching.clear q;
                List_matching.clear r;
                true
            | Restore envs ->
                let msgs = List.map msg envs in
                Matching.restore q msgs;
                List_matching.restore r msgs;
                true
          in
          agree && Matching.buffered q = r.List_matching.buffer)
        ops)

(* Serving n unexpected messages newest first costs the list matcher
   O(n) words per operation; the queue must stay O(1). *)
let test_matching_scales () =
  let n = 20_000 in
  let msgs = Array.init n (fun i -> { Message.src = i mod 7; dst = 0; tag = i; data = i; bytes = 0 }) in
  let q = Matching.create () in
  let before = Gc.minor_words () in
  Array.iteri
    (fun i m -> if Matching.deliver q m <> None then Alcotest.failf "deliver %d matched" i)
    msgs;
  for i = n - 1 downto 0 do
    let m = msgs.(i) in
    match Matching.serve q ~dst:0 ~src:m.Message.src ~tag:m.Message.tag () with
    | Some got -> if got != m then Alcotest.failf "serve %d returned the wrong message" i
    | None -> Alcotest.failf "serve %d found nothing" i
  done;
  let per_op = (Gc.minor_words () -. before) /. float_of_int (2 * n) in
  check_bool "queue drained" true (Matching.buffered q = []);
  if per_op > 64.0 then Alcotest.failf "%.1f minor words per operation (bound 64)" per_op

(* The envelope is packed into one int; a field that does not fit is
   refused by name, and the largest fields that fit match. *)
let test_matching_envelope_range () =
  let q = Matching.create () in
  let refused what f =
    match f () with
    | _ -> Alcotest.failf "%s was accepted" what
    | exception Invalid_argument msg -> msg
  in
  check Alcotest.string "tag too large" "Matching: tag 4194304 outside [0, 2^22)"
    (refused "tag 2^22" (fun () -> Matching.serve q ~dst:0 ~src:0 ~tag:(1 lsl 22) ()));
  check Alcotest.string "negative src" "Matching: src -1 outside [0, 2^20)"
    (refused "src -1" (fun () ->
         Matching.deliver q { Message.src = -1; dst = 0; tag = 0; data = 0; bytes = 0 }));
  check Alcotest.string "dst too large" "Matching: dst 1048576 outside [0, 2^20)"
    (refused "dst 2^20" (fun () ->
         Matching.deliver q { Message.src = 0; dst = 1 lsl 20; tag = 0; data = 0; bytes = 0 }));
  let top = (1 lsl 20) - 1 and top_tag = (1 lsl 22) - 1 in
  let m = { Message.src = top; dst = top; tag = top_tag; data = 1; bytes = 0 } in
  check_bool "largest envelope buffered" true (Matching.deliver q m = None);
  check_bool "a neighbour does not match" true
    (Matching.serve q ~dst:top ~src:top ~tag:(top_tag - 1) () = None);
  check_bool "largest envelope served" true
    (Matching.serve q ~dst:top ~src:top ~tag:top_tag () = Some m)

(* ------------------------------------------------------------------ *)
(* Dedup: the packed duplicate-suppression set *)

let test_dedup_keys_distinct () =
  let srcs = [ 0; 1; 48; (1 lsl 20) - 1 ] and tags = [ -2; -1; 0; 3; 803; 1 lsl 30 ] in
  let keys =
    List.concat_map (fun src -> List.map (fun tag -> Dedup.key ~src ~tag) tags) srcs
  in
  check_int "one key per pair" (List.length srcs * List.length tags)
    (List.length (List.sort_uniq Int.compare keys))

let test_dedup_src_range () =
  List.iter
    (fun src ->
      match Dedup.key ~src ~tag:0 with
      | _ -> Alcotest.failf "src %d was accepted" src
      | exception Invalid_argument _ -> ())
    [ -1; 1 lsl 20 ]

(* An image carries the packed keys; a daemon restored from it must drop
   exactly the messages the imaged daemon would have dropped. *)
let test_dedup_image_round_trip () =
  let t = Dedup.create () in
  List.iter
    (fun (src, tag) -> Dedup.add t ~src ~tag)
    [ (0, -2); (0, 3); (1, -1); (48, 803); (3, 1 lsl 30); (1, -1) ];
  let restored = Dedup.create () in
  Dedup.add_keys restored (Dedup.keys t);
  check_int "duplicates stored once" 5 (List.length (Dedup.keys restored));
  for src = 0 to 49 do
    List.iter
      (fun tag ->
        if Dedup.mem t ~src ~tag <> Dedup.mem restored ~src ~tag then
          Alcotest.failf "(%d, %d) suppressed on one side only" src tag)
      [ -2; -1; 0; 3; 803; 1 lsl 30 ]
  done

(* A tuple-keyed table cost 3 minor words per lookup for the key alone. *)
let test_dedup_no_allocation () =
  let t = Dedup.create () in
  Dedup.add t ~src:7 ~tag:803;
  let ops = 1000 in
  let before = Gc.minor_words () in
  for _ = 1 to ops / 2 do
    if not (Dedup.mem t ~src:7 ~tag:803) then Alcotest.fail "present key not found";
    Dedup.add t ~src:7 ~tag:803
  done;
  let per_op = (Gc.minor_words () -. before) /. float_of_int ops in
  if per_op >= 1.0 then Alcotest.failf "%.2f minor words per operation (bound 1)" per_op

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [ prop_random_faults_correct; prop_v2_random_faults_correct; prop_matching_model ]
  in
  Alcotest.run "mpivcl"
    [
      ( "failure-free",
        [
          Alcotest.test_case "completes with correct checksum" `Quick test_failure_free_completes;
          Alcotest.test_case "9 ranks" `Quick test_failure_free_9_ranks;
          Alcotest.test_case "single rank" `Quick test_single_rank;
          Alcotest.test_case "waves commit" `Quick test_waves_commit;
          Alcotest.test_case "frequent waves" `Quick test_frequent_waves_correct;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "single fault" `Quick test_single_fault_recovers;
          Alcotest.test_case "fault before first commit" `Quick test_fault_before_first_commit;
          Alcotest.test_case "sequential faults" `Quick test_sequential_faults_recover;
          Alcotest.test_case "failed rank moves to spare" `Quick test_fault_on_spare_rank_moves;
          Alcotest.test_case "blocking protocol" `Quick test_blocking_protocol;
        ] );
      ( "dispatcher-bug",
        [
          Alcotest.test_case "buggy dispatcher freezes" `Quick test_buggy_dispatcher_freezes;
          Alcotest.test_case "fixed dispatcher survives" `Quick test_fixed_dispatcher_survives;
          Alcotest.test_case "pre-registration kill retries cleanly" `Quick test_spawn_kill_retries;
        ] );
      ( "v2-protocol",
        [
          Alcotest.test_case "failure free" `Quick test_v2_failure_free;
          Alcotest.test_case "restarts only failed rank" `Quick
            test_v2_single_fault_restarts_only_failed;
          Alcotest.test_case "fault before first checkpoint" `Quick
            test_v2_fault_before_first_checkpoint;
          Alcotest.test_case "sequential faults" `Quick test_v2_sequential_faults;
          Alcotest.test_case "concurrent faults" `Quick test_v2_concurrent_faults;
        ] );
      ( "ckpt-server",
        [
          Alcotest.test_case "store/commit/fetch" `Quick test_server_store_commit_fetch;
          Alcotest.test_case "transfer takes time" `Quick test_server_transfer_takes_time;
          Alcotest.test_case "use local disk" `Quick test_server_use_local;
        ] );
      ( "storage-plane",
        [
          Alcotest.test_case "commit invariant under kill sweep" `Quick
            test_commit_invariant_under_kill_sweep;
          Alcotest.test_case "mirrored store reaches mirror" `Quick
            test_mirrored_store_reaches_mirror;
          Alcotest.test_case "respawned server resyncs shard" `Quick
            test_respawned_server_resyncs_shard;
        ] );
      ("local-disk", [ Alcotest.test_case "retention" `Quick test_local_disk_retention ]);
      ( "matching",
        [
          Alcotest.test_case "O(1) per operation" `Quick test_matching_scales;
          Alcotest.test_case "envelope range" `Quick test_matching_envelope_range;
        ] );
      ( "dedup",
        [
          Alcotest.test_case "keys are distinct" `Quick test_dedup_keys_distinct;
          Alcotest.test_case "src out of range" `Quick test_dedup_src_range;
          Alcotest.test_case "image keys suppress the same" `Quick test_dedup_image_round_trip;
          Alcotest.test_case "present key allocates nothing" `Quick test_dedup_no_allocation;
        ] );
      ("properties", qsuite);
    ]
