(* The explore suite: explorer throughput on three campaign shapes.

   Each shape runs twice with the same seed: once through the
   prefix-sharing scheduler (fork mode), once replaying every plan from
   t = 0. Both run on the same pool of worker processes. The figure of
   merit is plans per CPU-hour ([Unix.times], children included, so the
   workers are charged to the mode that forked them). The two reports must be byte-identical — coverage,
   records and witnesses — and the suite refuses to write its file
   otherwise, making every speedup double as an end-to-end equivalence
   check. The shapes:

   - late-faults: a >= 3-fault sampled campaign over a stencil that
     finishes at about 39 s simulated, with delays of 15, 30 and 60 s,
     so most plans end before their later faults fire and early
     completion does most of the saving;
   - cli-default: failmpi_explore's default campaign, NAS BT class A at
     9 ranks under the historical vcl dispatcher, kill faults 25, 10 or
     3 s apart;
   - prefix-heavy: the same deployment with delays of 300, 200 and
     100 s, so a branch's shared prefix is most of its run: the shape
     where replaying each job's prefix costs the scheduler most.

   Neither mode creates a domain, so their order inside the suite does
   not matter. The driver still runs this suite before any other: the
   OCaml runtime refuses [Unix.fork] in a process that ever created a
   domain, and later suites' [Par.map] creates them. *)

(* The test_explore demo deployment: a 60-iteration stencil under the
   non-blocking vcl protocol, fast and deterministic. *)
let stencil_spec () =
  let n_ranks = 4 in
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
  {
    (Failmpi.Run.default_spec ~app ~cfg ~n_compute:8 ~state_bytes:1_000_000) with
    Failmpi.Run.timeout = 300.0;
    seed = 1L;
  }

(* failmpi_explore's defaults: BT class A at 9 ranks on 13 machines, the
   historical dispatcher, seed 1, kill faults at every rank host, up to
   2 per plan. *)
let bt9_campaign ~buckets ~budget =
  let (module B : Failmpi.Backend.S) = Option.get (Failmpi.Backend.find "vcl") in
  let n_ranks = 9 in
  let n_machines = B.default_machines ~n_ranks ~replicas:2 in
  let cfg =
    {
      (Mpivcl.Config.default ~n_ranks) with
      Mpivcl.Config.protocol = B.protocol ~replicas:2;
      dispatcher_buggy = true;
    }
  in
  ( {
      (Experiments.Harness.bt_spec ~cfg ~klass:Workload.Bt_model.A ~n_ranks ~n_machines
         ~scenario:None ())
      with
      Failmpi.Run.seed = 1L;
      timeout = 600.0;
    },
    {
      (Explore.default_config ~n_machines ~targets:(List.init n_ranks Fun.id) ~buckets) with
      Explore.budget;
      max_faults = 2;
    } )

let shapes ~smoke =
  [
    ( "late-faults",
      ( stencil_spec (),
        {
          (Explore.default_config ~n_machines:8 ~targets:[ 0; 1 ] ~buckets:[ 60; 30; 15 ]) with
          Explore.budget = (if smoke then 60 else 500);
          max_faults = 4;
        } ) );
    ("cli-default", bt9_campaign ~buckets:[ 25; 10; 3 ] ~budget:(if smoke then 40 else 200));
    ("prefix-heavy", bt9_campaign ~buckets:[ 300; 200; 100 ] ~budget:(if smoke then 30 else 120));
  ]

(* Process + reaped-children CPU seconds: the pool reaps its workers
   before returning, so their time rolls up. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime +. t.Unix.tms_cutime +. t.Unix.tms_cstime

let run ~smoke =
  let jobs = min 4 (Par.default_jobs ()) in
  let campaign ~fork (name, (spec, cfg)) =
    Printf.printf "explore: %s, %d plans, %d jobs, %s...\n%!" name cfg.Explore.budget jobs
      (if fork then "fork mode" else "replay from zero");
    let c0 = cpu_s () in
    let (report, stats), wall_ms =
      Fixture.timed (fun () -> Explore.run_spec ~jobs ~fork ~measure:fork cfg ~spec)
    in
    (report, stats, cpu_s () -. c0, wall_ms /. 1e3)
  in
  let shapes = shapes ~smoke in
  let forked = List.map (campaign ~fork:true) shapes in
  let replayed = List.map (campaign ~fork:false) shapes in
  let records (name, (_, cfg)) (fork_report, stats, fork_cpu, fork_wall)
      (replay_report, _, replay_cpu, replay_wall) =
    if Explore.to_json fork_report <> Explore.to_json replay_report then
      Record.refuse "explore"
        "%s: fork and replay reports diverged; refusing to report throughput" name;
    let explored = List.length fork_report.Explore.records in
    let per_hour cpu = float_of_int explored /. (Float.max cpu 1e-6 /. 3600.0) in
    let path m = Printf.sprintf "%s/budget/%d/jobs/%d/%s" name cfg.Explore.budget jobs m in
    let mode m cpu wall =
      [
        Record.num ~layer:"explore" (path (m ^ "/cpu_s")) "s" cpu;
        Record.num ~layer:"explore" (path (m ^ "/wall_s")) "s" wall;
        Record.num ~layer:"explore" (path (m ^ "/plans_per_cpu_hour")) "1/h" (per_hour cpu);
      ]
    in
    let f = stats.Explore.Prefix.forks in
    [
      Record.int ~layer:"explore" (path "explored") "plans" explored;
      Record.int ~layer:"explore" (path "coverage_signatures") "count"
        (List.length fork_report.Explore.coverage);
    ]
    @ mode "replay" replay_cpu replay_wall
    @ mode "fork" fork_cpu fork_wall
    @ [
        Record.int ~layer:"explore" (path "fork/forks") "count" f;
        Record.int ~layer:"explore" (path "fork/pauses") "count" stats.Explore.Prefix.pauses;
        Record.num ~layer:"explore" (path "fork/fork_latency_ms") "ms"
          (if f = 0 then 0.0 else stats.Explore.Prefix.fork_wall_s /. float_of_int f *. 1e3);
        Record.int ~layer:"simkern" (path "fork/snapshot_events_max") "count"
          stats.Explore.Prefix.snapshot_events_max;
        Record.num ~layer:"explore" (path "speedup_plans_per_cpu_hour") "x"
          (per_hour fork_cpu /. Float.max (per_hour replay_cpu) 1e-6);
      ]
  in
  List.combine forked replayed
  |> List.map2 (fun shape (fork, replay) -> records shape fork replay) shapes
  |> List.concat
