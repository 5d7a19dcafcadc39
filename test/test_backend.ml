(* Tests for the protocol-backend layer (lib/backend):

   - registry: the fixed backend table, name/alias resolution, every
     Config.protocol constructor resolves, no spelling shared by two
     backends;
   - metrics: uniform counter set, generic aggregation in the harness;
   - golden equivalence: for each backend a fixed-seed run
     must reproduce the outcome, completion time, injected-fault count
     and checksum set captured from the pre-refactor per-protocol
     Run.execute (devtools/golden_capture.exe regenerates the table);
   - control surface: on every backend the FAIL [stop], [continue] and
     [halt] actions reach both the daemon and the application process of
     the targeted machine;
   - trace pins: the MD5 of each golden run's Full-level trace, and of
     one start-up-fault run per dispatcher family, so a refactor of the
     launch and registration code must keep every event byte for
     byte; runs that stop, continue and halt a machine or a service,
     which pin the order in which held messages are released; and one
     225-rank stencil run whose deep event queue pins the engine's
     same-instant pop order;
   - census: a fault-free run of every backend has no process that only
     reads a connection, and a pinned number of live tasks. *)

let check = Alcotest.check
let check_bool = check Alcotest.bool
let check_int = check Alcotest.int
let check_str = check Alcotest.string

module Backend = Failmpi.Backend

(* ------------------------------------------------------------------ *)
(* Backend table *)

let backend_name (module B : Backend.S) = B.name

let test_builtin_names () =
  check (Alcotest.list Alcotest.string) "table order"
    [ "vcl"; "blocking"; "v2"; "replication"; "ulfm" ]
    (Backend.names ())

let test_aliases_resolve () =
  List.iter
    (fun (spelling, expected) ->
      match Backend.find spelling with
      | Some b -> check_str spelling expected (backend_name b)
      | None -> Alcotest.failf "%s did not resolve" spelling)
    [
      ("vcl", "vcl");
      ("non-blocking", "vcl");
      ("blocking", "blocking");
      ("v2", "v2");
      ("logging", "v2");
      ("replication", "replication");
      ("rep", "replication");
      ("ulfm", "ulfm");
      ("shrink", "ulfm");
    ];
  check_bool "unknown name" true (Backend.find "raid0" = None)

let test_every_protocol_resolves () =
  List.iter
    (fun (proto, expected) ->
      let (module B : Backend.S) = Backend.of_protocol proto in
      check_str (Mpivcl.Config.protocol_name proto) expected B.name)
    [
      (Mpivcl.Config.Non_blocking, "vcl");
      (Mpivcl.Config.Blocking, "blocking");
      (Mpivcl.Config.Sender_logging, "v2");
      (Mpivcl.Config.Replication { degree = 2 }, "replication");
      (Mpivcl.Config.Replication { degree = 5 }, "replication");
      (Mpivcl.Config.Ulfm { spares = 0 }, "ulfm");
      (Mpivcl.Config.Ulfm { spares = 2 }, "ulfm");
    ]

let test_protocol_roundtrip () =
  (* B.protocol must produce a protocol that resolves back to B. *)
  List.iter
    (fun ((module B : Backend.S) as b) ->
      let proto = B.protocol ~replicas:3 in
      check_str "roundtrip" (backend_name b)
        (backend_name (Backend.of_protocol proto)))
    (Backend.all ())

(* Every name and alias resolves to exactly one backend: a spelling
   shared by two entries would make [find] silently pick the first. *)
let test_spellings_unique () =
  let spellings =
    List.concat_map (fun (module B : Backend.S) -> B.name :: B.aliases) (Backend.all ())
  in
  List.iter
    (fun n ->
      check_int n 1 (List.length (List.filter (String.equal n) spellings)))
    spellings

let test_default_machines () =
  let machines name ~replicas =
    match Backend.find name with
    | Some (module B : Backend.S) -> B.default_machines ~n_ranks:49 ~replicas
    | None -> Alcotest.failf "%s not registered" name
  in
  (* Paper allocation for the rollback families: 53 hosts for BT-49. *)
  check_int "vcl" 53 (machines "vcl" ~replicas:2);
  check_int "v2" 53 (machines "v2" ~replicas:2);
  check_int "replication x2" 100 (machines "replication" ~replicas:2);
  check_int "ulfm" 53 (machines "ulfm" ~replicas:2)

(* ------------------------------------------------------------------ *)
(* Metrics *)

let test_metrics_counters () =
  let m =
    {
      Backend.Metrics.zero with
      Backend.Metrics.recoveries = 2;
      committed_waves = 5;
      confused = true;
      extra = [ ("exhausted", 1) ];
    }
  in
  check (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int)) "counters"
    [
      ("recoveries", 2);
      ("committed_waves", 5);
      ("confused", 1);
      ("failovers", 0);
      ("respawns", 0);
      ("exhausted", 1);
    ]
    (Backend.Metrics.counters m);
  check_bool "find extra" true (Backend.Metrics.find m "exhausted" = Some 1);
  check_bool "find missing" true (Backend.Metrics.find m "nope" = None);
  (* Fabric counters come last, after the backend's extras. *)
  let m =
    {
      m with
      Backend.Metrics.net =
        Some
          {
            Simnet.Net.Perturb.dropped = 7;
            delayed = 3;
            retransmits = 11;
            conn_timeouts = 2;
          };
    }
  in
  check (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int)) "counters with net"
    [
      ("recoveries", 2);
      ("committed_waves", 5);
      ("confused", 1);
      ("failovers", 0);
      ("respawns", 0);
      ("exhausted", 1);
      ("net_dropped", 7);
      ("net_delayed", 3);
      ("net_retransmits", 11);
      ("net_conn_timeouts", 2);
    ]
    (Backend.Metrics.counters m);
  check_bool "find net" true (Backend.Metrics.find m "net_conn_timeouts" = Some 2)

let fake_result metrics =
  {
    Failmpi.Run.outcome = Failmpi.Run.Completed 10.0;
    injected_faults = 1;
    metrics;
    checksums = [];
    checksum_ok = None;
    trace = Simkern.Trace.create ();
  }

let test_aggregate_generic_counters () =
  (* One rollback-style and one replication-style result: the aggregate
     must average every counter either backend reported, including the
     extension map, with no per-protocol code. *)
  let rollback =
    fake_result
      { Backend.Metrics.zero with Backend.Metrics.recoveries = 2; committed_waves = 4 }
  in
  let replication =
    fake_result
      {
        Backend.Metrics.zero with
        Backend.Metrics.failovers = 4;
        respawns = 2;
        extra = [ ("exhausted", 1) ];
      }
  in
  let agg = Experiments.Harness.aggregate ~label:"mixed" [ rollback; replication ] in
  check (Alcotest.float 1e-9) "recoveries" 1.0 (Experiments.Harness.counter agg "recoveries");
  check (Alcotest.float 1e-9) "committed" 2.0
    (Experiments.Harness.counter agg "committed_waves");
  check (Alcotest.float 1e-9) "failovers" 2.0 (Experiments.Harness.counter agg "failovers");
  check (Alcotest.float 1e-9) "respawns" 1.0 (Experiments.Harness.counter agg "respawns");
  check (Alcotest.float 1e-9) "extension counter" 0.5
    (Experiments.Harness.counter agg "exhausted");
  check (Alcotest.float 1e-9) "unknown counter" 0.0
    (Experiments.Harness.counter agg "nope")

(* ------------------------------------------------------------------ *)
(* Golden equivalence: fixed-seed behaviour captured from the
   per-protocol Run.execute before the backend refactor
   (devtools/golden_capture.exe on commit bece8b9). *)

let small_params =
  { Workload.Stencil.iterations = 60; compute_time = 0.5; msg_bytes = 5_000; jitter = 0.0 }

let golden_spec ~protocol ~n_ranks ~n_machines ~scenario =
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

type golden = {
  g_seed : int64;
  g_outcome : string;
  g_time : string;  (** %.6f of the completion time, "-" otherwise *)
  g_faults : int;
  g_checksums : (int * int) list;
}

let stencil_4 = 1334555200
let all_ranks_4 = [ (0, stencil_4); (1, stencil_4); (2, stencil_4); (3, stencil_4) ]

let goldens =
  [
    ( "vcl",
      Mpivcl.Config.Non_blocking,
      [
        { g_seed = 1L; g_outcome = "completed"; g_time = "53.935736"; g_faults = 3;
          g_checksums = all_ranks_4 };
        { g_seed = 7L; g_outcome = "completed"; g_time = "51.763581"; g_faults = 3;
          g_checksums = all_ranks_4 };
      ] );
    ( "blocking",
      Mpivcl.Config.Blocking,
      [
        { g_seed = 1L; g_outcome = "completed"; g_time = "53.935736"; g_faults = 3;
          g_checksums = all_ranks_4 };
        { g_seed = 7L; g_outcome = "completed"; g_time = "51.763581"; g_faults = 3;
          g_checksums = all_ranks_4 };
      ] );
    ( "v2",
      Mpivcl.Config.Sender_logging,
      [
        { g_seed = 1L; g_outcome = "completed"; g_time = "49.945721"; g_faults = 3;
          g_checksums = all_ranks_4 };
        { g_seed = 7L; g_outcome = "completed"; g_time = "44.125085"; g_faults = 2;
          g_checksums = all_ranks_4 };
      ] );
    ( "replication",
      Mpivcl.Config.Replication { degree = 2 },
      [
        { g_seed = 1L; g_outcome = "completed"; g_time = "31.187577"; g_faults = 2;
          g_checksums = all_ranks_4 };
        { g_seed = 7L; g_outcome = "completed"; g_time = "31.164741"; g_faults = 2;
          g_checksums = all_ranks_4 };
      ] );
    ( "ulfm",
      Mpivcl.Config.Ulfm { spares = 1 },
      [
        { g_seed = 1L; g_outcome = "degraded"; g_time = "32.141415"; g_faults = 2;
          g_checksums = all_ranks_4 };
        { g_seed = 7L; g_outcome = "degraded"; g_time = "35.902115"; g_faults = 2;
          g_checksums = all_ranks_4 };
      ] );
  ]

let run_golden ~protocol g =
  let n_machines =
    match protocol with Mpivcl.Config.Replication _ -> 10 | _ -> 8
  in
  let scenario = Fail_lang.Paper_scenarios.frequency ~n_machines ~period:15 in
  Failmpi.Run.execute
    {
      (golden_spec ~protocol ~n_ranks:4 ~n_machines ~scenario) with
      Failmpi.Run.seed = g.g_seed;
    }

let check_golden name ~protocol g =
  let r = run_golden ~protocol g in
  let ctx fmt = Printf.sprintf "%s seed=%Ld %s" name g.g_seed fmt in
  check_str (ctx "outcome") g.g_outcome (Failmpi.Run.outcome_name r.Failmpi.Run.outcome);
  check_str (ctx "time") g.g_time
    (match r.Failmpi.Run.outcome with
    | Failmpi.Run.Completed t -> Printf.sprintf "%.6f" t
    | Failmpi.Run.Degraded { at; _ } -> Printf.sprintf "%.6f" at
    | Failmpi.Run.Aborted _ | Failmpi.Run.Ckpt_lost | Failmpi.Run.Non_terminating
    | Failmpi.Run.Buggy | Failmpi.Run.Net_hung ->
        "-");
  check_int (ctx "faults") g.g_faults r.Failmpi.Run.injected_faults;
  check (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int)) (ctx "checksums")
    g.g_checksums r.Failmpi.Run.checksums;
  r

let test_golden name protocol cases () =
  List.iter (fun g -> ignore (check_golden name ~protocol g)) cases

let test_metrics_not_cross_wired () =
  (* The pre-refactor Run.execute hard-coded the counters of the other
     family to zero; now each backend reports its own. A faulty vcl run
     must show recovery waves and no failovers; a faulty replication run
     must show failovers and no recovery waves. *)
  let _, vcl_proto, vcl_cases = List.nth goldens 0 in
  let r = run_golden ~protocol:vcl_proto (List.hd vcl_cases) in
  check_bool "vcl recovered" true (Failmpi.Run.recoveries r >= 1);
  check_int "vcl no failovers" 0 (Failmpi.Run.failovers r);
  check_int "vcl no respawns" 0 (Failmpi.Run.respawns r);
  let _, rep_proto, rep_cases = List.nth goldens 3 in
  let r = run_golden ~protocol:rep_proto (List.hd rep_cases) in
  check_bool "replication failed over" true (Failmpi.Run.failovers r >= 1);
  check_int "replication no recovery waves" 0 (Failmpi.Run.recoveries r);
  check_int "replication no checkpoint waves" 0 (Failmpi.Run.committed_waves r);
  check_bool "replication reports exhaustion counter" true
    (Backend.Metrics.find r.Failmpi.Run.metrics "exhausted" = Some 0)

(* ------------------------------------------------------------------ *)
(* Trace pins: the whole Full-level trace of a run, not just its
   outcome. The golden runs never lose a daemon before the start
   broadcast, so a start-up-fault scenario pins the dispatchers' launch
   retries as well: machine 1's daemon dies at load, before its Hello
   (spawn-failed in vcl and replication), machine 2's right after its
   Hello (spawn-retry in replication), and machine 3 is cut off after its
   Hello for 20 s. A halted ulfm daemon is relaunched untraced, so only
   the cut, which drops the link of a live daemon, reaches ulfm's
   spawn-retry. That relaunch lands on machine 3 while the cut-off daemon
   still holds its port, and the relaunches repeat until the timeout: the
   pin keeps this open defect as it is. *)

let trace_digest (r : Failmpi.Run.result) =
  Digest.to_hex (Digest.string (Format.asprintf "%a" Simkern.Trace.pp r.Failmpi.Run.trace))

(* one digest per golden case, in the order of [goldens] (seeds 1, 7) *)
let golden_trace_digests =
  [
    ("vcl", [ "db701425792c4f6a34139e5ab15e70fc"; "93f73864dd3912effe1aaac9ff0e031b" ]);
    ("blocking", [ "db701425792c4f6a34139e5ab15e70fc"; "93f73864dd3912effe1aaac9ff0e031b" ]);
    ("v2", [ "95de9d6296b70dd483ceea15d679eb16"; "dfa233030126de6db7d3d3577edaa206" ]);
    ("replication", [ "33d93288c32a485f732372447e393d6e"; "e4e08a0aa55b8143f0bcbdf09c805829" ]);
    ("ulfm", [ "66ebb5d7c2847b590275de28ccb694b6"; "67c09502c052c257bb5f8d7507f31ab4" ]);
  ]

let test_golden_trace name protocol cases () =
  List.iter2
    (fun g digest ->
      check_str (Printf.sprintf "%s seed=%Ld trace digest" name g.g_seed) digest
        (trace_digest (run_golden ~protocol g)))
    cases
    (List.assoc name golden_trace_digests)

let startup_scenario =
  {|
Daemon HALT {
  node 1:
    onload -> halt, goto 2;
  node 2:
}
Daemon LATE {
  node 1:
    before(localMPI_setCommand) -> halt, goto 2;
  node 2:
}
Daemon CUT {
  node 1:
    before(localMPI_setCommand) -> partition G3[0], goto 2;
  node 2:
    time t = 20;
    timer -> heal, goto 3;
  node 3:
}
G1[1] : HALT on machines 1 .. 1;
G2[1] : LATE on machines 2 .. 2;
G3[1] : CUT on machines 3 .. 3;
|}

(* family, protocol, start-up events its trace must contain, digest *)
let startup_pins =
  [
    ("vcl", Mpivcl.Config.Non_blocking, [ "spawn-failed" ], "b3123d4f0791f7f85ad21513e019f760");
    ( "replication",
      Mpivcl.Config.Replication { degree = 2 },
      [ "spawn-failed"; "spawn-retry" ],
      "d3f3bbac4df5706fffc29d0eea31efcd" );
    ("ulfm", Mpivcl.Config.Ulfm { spares = 1 }, [ "spawn-retry" ], "c8b78e03f8b1ccb8e0c93b076220f44d");
  ]

let test_startup_trace (name, protocol, events, digest) () =
  let n_machines = match protocol with Mpivcl.Config.Replication _ -> 10 | _ -> 8 in
  let r =
    Failmpi.Run.execute (golden_spec ~protocol ~n_ranks:4 ~n_machines ~scenario:startup_scenario)
  in
  let seen = Failmpi.Run.trace_events r in
  List.iter
    (fun ev ->
      check_bool (Printf.sprintf "%s traces %s" name ev) true
        (List.exists (fun (_, e) -> e = ev) seen))
    events;
  check_str (name ^ " start-up trace digest") digest (trace_digest r)

(* Scale-order pin: the goldens keep the event queue a few entries deep,
   so they never exercise multi-level sifts. The first point of the
   hosts-vs-wallclock curve (bench/scale.ml: 256 hosts, 250 of them
   compute, 225 ranks, a 10-iteration stencil) keeps thousands of events
   queued with many same-instant ties. Its Full-level trace, per-rank
   checksums and completion time are pinned together as one MD5. *)

let scale_order_digest = "0c455ed2b323e19ac22927af3a78d85f"

let test_scale_order () =
  let n_ranks = 225 in
  let params =
    { Workload.Stencil.iterations = 10; compute_time = 0.5; msg_bytes = 10_000; jitter = 0.0 }
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
  let r =
    Failmpi.Run.execute
      {
        (Failmpi.Run.default_spec ~app ~cfg ~n_compute:250 ~state_bytes:100_000) with
        Failmpi.Run.timeout = 600.0;
      }
  in
  let time =
    match r.Failmpi.Run.outcome with
    | Failmpi.Run.Completed t -> Printf.sprintf "%.6f" t
    | o -> Alcotest.failf "scale run did not complete (%s)" (Failmpi.Run.outcome_name o)
  in
  let reference = Workload.Stencil.reference_checksum params ~n_ranks in
  check (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int)) "checksums"
    (List.init n_ranks (fun rank -> (rank, reference)))
    r.Failmpi.Run.checksums;
  let checksums =
    String.concat ";"
      (List.map (fun (rank, c) -> Printf.sprintf "%d:%d" rank c) r.Failmpi.Run.checksums)
  in
  let text =
    String.concat "\n"
      [ Format.asprintf "%a" Simkern.Trace.pp r.Failmpi.Run.trace; checksums; time ]
  in
  check_str "trace, checksums and time digest" scale_order_digest
    (Digest.to_hex (Digest.string text))

(* ------------------------------------------------------------------ *)
(* Control surface: the FCI target each backend's daemon registers must
   stop, continue and halt the whole MPI task on its machine, daemon and
   computation process alike. *)

let control_plan =
  {|
Daemon CTRL {
  node 1:
    onload -> continue, goto 2;
  node 2:
    time t = 10;
    timer -> stop, goto 3;
  node 3:
    time t = 5;
    timer -> continue, goto 4;
  node 4:
    time t = 10;
    timer -> halt, goto 5;
  node 5:
}
G1[1] : CTRL on machines 1 .. 1;
|}

(* Long enough that the application on machine 1 outlives the halt. *)
let control_params =
  { Workload.Stencil.iterations = 120; compute_time = 0.5; msg_bytes = 5_000; jitter = 0.0 }

let test_control_surface protocol () =
  let n_ranks = 4 in
  let eng = Simkern.Engine.create ~seed:3L () in
  let fci =
    match Fail_lang.Compile.compile_source control_plan with
    | Ok plan -> Fci.Runtime.create eng plan
    | Error msg -> Alcotest.failf "control plan: %s" msg
  in
  let app = Workload.Stencil.app control_params ~n_ranks in
  let cfg = { (Mpivcl.Config.default ~n_ranks) with Mpivcl.Config.protocol } in
  let launch n_compute =
    (* the daemon and application task names on machine 1 *)
    match protocol with
    | Mpivcl.Config.Replication _ ->
        let h = Mpirep.Deploy.launch eng ~fci ~cfg ~app ~state_bytes:1_000_000 ~n_compute () in
        (Mpirep.Deploy.cluster h, "rdaemon-1.0", "rmpi-1.0")
    | Mpivcl.Config.Ulfm _ ->
        let h = Mpiulfm.Deploy.launch eng ~fci ~cfg ~app ~state_bytes:1_000_000 ~n_compute () in
        (Mpiulfm.Deploy.cluster h, "udaemon-1", "umpi-1")
    | Mpivcl.Config.Non_blocking | Mpivcl.Config.Blocking | Mpivcl.Config.Sender_logging ->
        let h = Mpivcl.Deploy.launch eng ~fci ~cfg ~app ~state_bytes:1_000_000 ~n_compute () in
        (Mpivcl.Deploy.cluster h, "vdaemon-1", "mpi-1")
  in
  let cluster, daemon_name, app_name =
    launch (match protocol with Mpivcl.Config.Replication _ -> 10 | _ -> 8)
  in
  let task name =
    match Simos.Cluster.find_task cluster ~host:1 ~name with
    | Some p -> p
    | None -> Alcotest.failf "no live %s on host 1 at %.1f" name (Simkern.Engine.now eng)
  in
  (* onload comes within the first seconds, so the timers fire at about
     10-13 s (stop), 15-18 s (continue) and 25-28 s (halt). The freeze
     stays below ulfm's 8 s suspicion timeout, so no backend reacts to
     it by excluding the frozen machine. *)
  ignore (Simkern.Engine.run ~until:14.0 eng);
  let daemon = task daemon_name and app_proc = task app_name in
  check_bool "daemon frozen after stop" true (Simkern.Proc.is_frozen daemon);
  check_bool "app frozen after stop" true (Simkern.Proc.is_frozen app_proc);
  ignore (Simkern.Engine.run ~until:19.5 eng);
  List.iter
    (fun (what, p) ->
      check_bool (what ^ " alive after continue") true (Simkern.Proc.is_alive p);
      check_bool (what ^ " running after continue") false (Simkern.Proc.is_frozen p))
    [ ("daemon", daemon); ("app", app_proc) ];
  ignore (Simkern.Engine.run ~until:30.0 eng);
  check_bool "daemon dead after halt" false (Simkern.Proc.is_alive daemon);
  check_bool "app dead after halt" false (Simkern.Proc.is_alive app_proc)

(* Freeze pins: the Full-level trace MD5 of runs whose processes are
   frozen, so the order in which held messages are released is pinned
   byte for byte. The control plan above on every backend; the same
   machine halted while still frozen; and a vcl run that stops and
   continues each service in turn. *)

let frozen_halt_plan =
  {|
Daemon FROZEN {
  node 1:
    onload -> continue, goto 2;
  node 2:
    time t = 10;
    timer -> stop, goto 3;
  node 3:
    time t = 5;
    timer -> halt, goto 4;
  node 4:
}
G1[1] : FROZEN on machines 1 .. 1;
|}

(* The control plan with a 7 s stop: long enough that withholding a
   ulfm daemon's links while it is stopped, rather than delivering them
   into its mailbox, changes the trace. *)
let long_stop_plan =
  {|
Daemon CTRL {
  node 1:
    onload -> continue, goto 2;
  node 2:
    time t = 10;
    timer -> stop, goto 3;
  node 3:
    time t = 7;
    timer -> continue, goto 4;
  node 4:
    time t = 10;
    timer -> halt, goto 5;
  node 5:
}
G1[1] : CTRL on machines 1 .. 1;
|}

(* Wave 2 starts at about 21.1 s. Its stores to ckpt[0] are held
   until 24 s, so their acks reach the scheduler while it is stopped
   (23-26 s); every rank's rank-done reaches the dispatcher while it is
   stopped (28-33 s). The coordinator runs on the spare machine 7. *)
let services_plan =
  {|
Daemon SVC {
  node 1:
    time t = 21;
    timer -> stop service ckpt[0], goto 2;
  node 2:
    time t = 2;
    timer -> stop service sched, goto 3;
  node 3:
    time t = 1;
    timer -> continue service ckpt[0], goto 4;
  node 4:
    time t = 2;
    timer -> continue service sched, goto 5;
  node 5:
    time t = 2;
    timer -> stop service disp, goto 6;
  node 6:
    time t = 5;
    timer -> continue service disp, goto 7;
  node 7:
}
P1 : SVC on machine 7;
|}

(* pin name, protocol, plan, digest *)
let freeze_pins =
  [
    ( "control vcl", Mpivcl.Config.Non_blocking, control_plan,
      "c8ac52e515b06b38057e774306526c58" );
    ( "control blocking", Mpivcl.Config.Blocking, control_plan,
      "5f0accf1db68dabef2bb9fda4a7beb39" );
    ( "control v2", Mpivcl.Config.Sender_logging, control_plan,
      "9fe5bf96188dae04d09e56e8c0213cbf" );
    ( "control replication", Mpivcl.Config.Replication { degree = 2 }, control_plan,
      "c737f54c4108fb301f6f1e43a434c93d" );
    ( "control ulfm", Mpivcl.Config.Ulfm { spares = 1 }, control_plan,
      "0a608856d602d007f0c2601c14fd7853" );
    ( "long stop ulfm", Mpivcl.Config.Ulfm { spares = 1 }, long_stop_plan,
      "d426593099413e3d4127c75d957e9fb4" );
    ( "halted frozen vcl", Mpivcl.Config.Non_blocking, frozen_halt_plan,
      "4db7e979ede2d546faab272eeed060a0" );
    ( "halted frozen ulfm", Mpivcl.Config.Ulfm { spares = 1 }, frozen_halt_plan,
      "b89f8974ecdc48421f00cc73006ac97f" );
    ( "services vcl", Mpivcl.Config.Non_blocking, services_plan,
      "933b07f48475d82b7894316a193e6c2a" );
  ]

let test_freeze_trace (name, protocol, plan, digest) () =
  let n_machines = match protocol with Mpivcl.Config.Replication _ -> 10 | _ -> 8 in
  let r = Failmpi.Run.execute (golden_spec ~protocol ~n_ranks:4 ~n_machines ~scenario:plan) in
  check_str (name ^ " trace digest") digest (trace_digest r)

(* ------------------------------------------------------------------ *)
(* Census: connections deliver into mailboxes without a process per
   link. Ten seconds into a fault-free 9-rank run, the live tasks are
   daemons, application processes, services, accept loops and
   checkpoint-server connection handlers. A link reader would be named
   after its daemon or dispatcher with a [-peer], [-ctrl], [-sched],
   [-server] or [-conn] suffix. *)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let link_reader name =
  let ends suffix = String.ends_with ~suffix name in
  contains name "-peer" || ends "-ctrl" || ends "-sched"
  || (ends "-server" && name <> "ckpt-server")
  || (ends "-conn" && name <> "ckpt-server-conn")

(* backend, live tasks at 10 s *)
let census_pins = [ ("vcl", 49); ("blocking", 49); ("v2", 44); ("replication", 56); ("ulfm", 31) ]

let test_census (name, protocol, _) () =
  let n_ranks = 9 in
  let eng = Simkern.Engine.create ~seed:1L () in
  let app = Workload.Stencil.app small_params ~n_ranks in
  let cfg = { (Mpivcl.Config.default ~n_ranks) with Mpivcl.Config.protocol } in
  let n_compute =
    match Backend.find name with
    | Some (module B : Backend.S) -> B.default_machines ~n_ranks ~replicas:2
    | None -> Alcotest.failf "%s not registered" name
  in
  let state_bytes = 1_000_000 in
  let cluster =
    match protocol with
    | Mpivcl.Config.Replication _ ->
        Mpirep.Deploy.cluster (Mpirep.Deploy.launch eng ~cfg ~app ~state_bytes ~n_compute ())
    | Mpivcl.Config.Ulfm _ ->
        Mpiulfm.Deploy.cluster (Mpiulfm.Deploy.launch eng ~cfg ~app ~state_bytes ~n_compute ())
    | Mpivcl.Config.Non_blocking | Mpivcl.Config.Blocking | Mpivcl.Config.Sender_logging ->
        Mpivcl.Deploy.cluster (Mpivcl.Deploy.launch eng ~cfg ~app ~state_bytes ~n_compute ())
  in
  ignore (Simkern.Engine.run ~until:10.0 eng);
  let names =
    List.concat_map
      (fun (h : Simos.Cluster.host) ->
        List.map Simkern.Proc.name (Simos.Cluster.tasks cluster ~host:h.Simos.Cluster.host_id))
      (Simos.Cluster.hosts cluster)
  in
  check (Alcotest.list Alcotest.string) (name ^ " link readers") []
    (List.filter link_reader names);
  check_int (name ^ " live tasks") (List.assoc name census_pins)
    (Simos.Cluster.live_task_count cluster)

let () =
  Alcotest.run "backend"
    [
      ( "registry",
        [
          Alcotest.test_case "builtin names" `Quick test_builtin_names;
          Alcotest.test_case "aliases resolve" `Quick test_aliases_resolve;
          Alcotest.test_case "every protocol resolves" `Quick test_every_protocol_resolves;
          Alcotest.test_case "protocol roundtrip" `Quick test_protocol_roundtrip;
          Alcotest.test_case "no spelling names two backends" `Quick test_spellings_unique;
          Alcotest.test_case "default machines" `Quick test_default_machines;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "uniform counters" `Quick test_metrics_counters;
          Alcotest.test_case "generic aggregation" `Quick test_aggregate_generic_counters;
          Alcotest.test_case "not cross-wired" `Quick test_metrics_not_cross_wired;
        ] );
      ( "golden-equivalence",
        List.map
          (fun (name, protocol, cases) ->
            Alcotest.test_case name `Quick (test_golden name protocol cases))
          goldens );
      ( "control-surface",
        List.map
          (fun (name, protocol, _) ->
            Alcotest.test_case name `Quick (test_control_surface protocol))
          goldens );
      ( "trace-pins",
        List.map
          (fun (name, protocol, cases) ->
            Alcotest.test_case name `Quick (test_golden_trace name protocol cases))
          goldens
        @ List.map
            (fun ((name, _, _, _) as pin) ->
              Alcotest.test_case ("start-up " ^ name) `Quick (test_startup_trace pin))
            startup_pins
        @ List.map
            (fun ((name, _, _, _) as pin) ->
              Alcotest.test_case name `Quick (test_freeze_trace pin))
            freeze_pins
        @ [ Alcotest.test_case "scale order" `Quick test_scale_order ] );
      ( "census",
        List.map
          (fun ((name, _, _) as g) -> Alcotest.test_case name `Quick (test_census g))
          goldens );
    ]
