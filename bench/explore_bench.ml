(* The explore suite: explorer throughput.

   One campaign — a >= 3-fault sampled configuration over the demo
   stencil deployment, 500 plans (60 with --smoke) — run twice with the
   same seed: once through the prefix-sharing fork scheduler, once
   replaying every plan from t = 0. The figure of merit is plans per
   CPU-hour ([Unix.times], children included, so every forked branch
   process is charged to its mode). The two reports must be
   byte-identical — coverage, records and witnesses — and the suite
   refuses to write its file otherwise, making the speedup double as an
   end-to-end equivalence check.

   The fork campaign runs first, and the driver runs this suite before
   any other: the OCaml runtime refuses [Unix.fork] in a process that
   ever created a domain, and the replay campaign's [Par.map] creates
   them. *)

let n_machines = 8

(* The test_explore demo deployment: a 60-iteration stencil under the
   non-blocking vcl protocol — fast, deterministic, and done in ~31 s
   simulated, so the 15/30/60 s buckets span a real prefix before the
   first fault and chains of later delays land in (or past) recovery. *)
let spec () =
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
    (Failmpi.Run.default_spec ~app ~cfg ~n_compute:n_machines ~state_bytes:1_000_000) with
    Failmpi.Run.timeout = 300.0;
    seed = 1L;
  }

(* Process + reaped-children CPU seconds.  Forked branch processes are
   waited on by their parents, so their time rolls up recursively;
   domain workers are threads of this process and count directly. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime +. t.Unix.tms_cutime +. t.Unix.tms_cstime

let run ~smoke =
  let budget = if smoke then 60 else 500 in
  let cfg =
    {
      (Explore.default_config ~n_machines ~targets:[ 0; 1 ] ~buckets:[ 60; 30; 15 ]) with
      Explore.budget;
      max_faults = 4;
    }
  in
  let jobs = min 4 (Par.default_jobs ()) in
  let campaign ~fork =
    Printf.printf "explore: %d plans, %d jobs, %s...\n%!" budget jobs
      (if fork then "fork scheduler" else "replay from zero");
    let c0 = cpu_s () in
    let (report, stats), wall_ms =
      Fixture.timed (fun () -> Explore.run_spec ~jobs ~fork ~measure:fork cfg ~spec:(spec ()))
    in
    (report, stats, cpu_s () -. c0, wall_ms /. 1e3)
  in
  let fork_report, stats, fork_cpu, fork_wall = campaign ~fork:true in
  let replay_report, _, replay_cpu, replay_wall = campaign ~fork:false in
  if Explore.to_json fork_report <> Explore.to_json replay_report then
    Record.refuse "explore" "fork and replay reports diverged; refusing to report throughput";
  let explored = List.length fork_report.Explore.records in
  let per_hour cpu = float_of_int explored /. (Float.max cpu 1e-6 /. 3600.0) in
  let path m = Printf.sprintf "budget/%d/jobs/%d/%s" budget jobs m in
  let mode name cpu wall =
    [
      Record.num ~layer:"explore" (path (name ^ "/cpu_s")) "s" cpu;
      Record.num ~layer:"explore" (path (name ^ "/wall_s")) "s" wall;
      Record.num ~layer:"explore" (path (name ^ "/plans_per_cpu_hour")) "1/h" (per_hour cpu);
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
      Record.int ~layer:"simkern" (path "fork/snapshot_bytes_max") "bytes"
        (stats.Explore.Prefix.snapshot_words_max * (Sys.word_size / 8));
      Record.num ~layer:"explore" (path "speedup_plans_per_cpu_hour") "x"
        (per_hour fork_cpu /. Float.max (per_hour replay_cpu) 1e-6);
    ]
