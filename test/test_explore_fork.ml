(* Tests for the prefix-sharing fork scheduler and the coverage corpus:

   - fork-vs-replay byte-identical reports across all five protocol
     backends, on a >= 3-fault sampled configuration, on the CLI's
     default 9-rank explorer campaign, whose scenario timers are
     retimed earlier and then later across pauses, and on a campaign of
     service faults whose freezes come before other faults;
   - --jobs invariance: fork at jobs 1 and 4 and replay at jobs 1 and 4
     all render the same JSON;
   - the worker pool's edges: a job that raises and a worker that dies
     both fail the campaign with every worker reaped, forks stay within
     --jobs and within the jobs there are, plans with equal scenario text run once, and
     a fork campaign still forks after a replay campaign at jobs 4;
   - shrink-oracle memoization (probes_saved) on a real witness;
   - corpus save -> resume round-trip, plus the exact refusal messages
     for non-corpus directories and incompatible configurations;
   - Plan.of_key as the inverse of Plan.key, with its error messages. *)

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let check_str = check Alcotest.string

module Plan = Explore.Plan
module Corpus = Explore.Corpus

(* ------------------------------------------------------------------ *)
(* Campaign under the seeded vcl dispatcher race: known to go buggy on
   second strikes inside a recovery wave, so the report has witnesses
   to exercise the shrink memo. *)

let demo_spec () =
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
      dispatcher_buggy = false;
      vcl_seeded_race = true;
    }
  in
  {
    (Failmpi.Run.default_spec ~app ~cfg ~n_compute:n_machines ~state_bytes:1_000_000) with
    Failmpi.Run.timeout = 300.0;
    seed = 1L;
  }

(* max_faults 3 with budget past the 1-2 fault grid, so the seeded
   sampler contributes >= 3-fault plans to the campaign. *)
let demo_config =
  {
    (Explore.default_config ~n_machines:8 ~targets:[ 0; 1; 2; 3 ] ~buckets:[ 12; 3 ]) with
    Explore.max_faults = 3;
    budget = 90;
  }

(* The other four backends run the CLI's NAS BT deployment. *)
let backend_spec name =
  let (module B : Failmpi.Backend.S) =
    match Failmpi.Backend.find name with
    | Some b -> b
    | None -> Alcotest.failf "backend %s not registered" name
  in
  let n_ranks = 4 and replicas = 2 in
  let n_machines = B.default_machines ~n_ranks ~replicas in
  let cfg =
    {
      (Mpivcl.Config.default ~n_ranks) with
      Mpivcl.Config.protocol = B.protocol ~replicas;
    }
  in
  let klass =
    match Workload.Bt_model.klass_of_string "A" with
    | Some k -> k
    | None -> assert false
  in
  ( {
      (Experiments.Harness.bt_spec ~cfg ~klass ~n_ranks ~n_machines ~scenario:None ()) with
      Failmpi.Run.seed = 1L;
      timeout = 600.0;
    },
    {
      (Explore.default_config ~n_machines ~targets:[ 0; 1 ] ~buckets:[ 20; 10 ]) with
      Explore.max_faults = 3;
      budget = 30;
    } )

let other_backends = [ "blocking"; "v2"; "replication"; "ulfm" ]

(* The CLI's default explorer campaign (failmpi_explore --seed 123456789
   --max-faults 2 --budget 40): historical vcl dispatcher, NAS BT class
   A at 9 ranks on 13 machines, kill faults aimed at every rank host. *)
let cli_seed = 123456789

let cli_default_spec () =
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
      Failmpi.Run.seed = Int64.of_int cli_seed;
      timeout = 600.0;
    },
    {
      (Explore.default_config ~n_machines ~targets:(List.init n_ranks Fun.id)
         ~buckets:[ 25; 10; 3 ])
      with
      Explore.max_faults = 2;
      budget = 40;
      sample_seed = cli_seed;
    } )

(* ------------------------------------------------------------------ *)
(* Fork campaigns *)

let fork_j1 = Explore.run_spec ~jobs:1 ~fork:true demo_config ~spec:(demo_spec ())
let fork_j4 = Explore.run_spec ~jobs:4 ~fork:true demo_config ~spec:(demo_spec ())

let backend_forked =
  List.map
    (fun name ->
      let spec, cfg = backend_spec name in
      (name, fst (Explore.run_spec ~jobs:4 ~fork:true cfg ~spec)))
    other_backends

let cli_forked =
  let spec, cfg = cli_default_spec () in
  fst (Explore.run_spec ~jobs:2 ~fork:true cfg ~spec)

(* Corpus round-trip *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let corpus_dir = Filename.concat (Filename.get_temp_dir_name ()) "failmpi_test_corpus"
let () = rm_rf corpus_dir
let corpus_cfg budget = { demo_config with Explore.budget }
let corpus_r1 = fst (Explore.run_spec ~jobs:1 ~fork:true ~corpus:corpus_dir (corpus_cfg 20) ~spec:(demo_spec ()))
let corpus_r2 = fst (Explore.run_spec ~jobs:1 ~fork:true ~corpus:corpus_dir (corpus_cfg 40) ~spec:(demo_spec ()))

(* Pool edges: [Prefix.run] driven directly on the demo campaign's
   first plans.  A first pass notes which plans a worker summarized (the
   caller runs the whole-trie job itself), and the failing passes aim at
   the first of those, so the failure happens inside the pool. *)

let pool_plans = List.mapi (fun i p -> (i, p)) (List.filteri (fun i _ -> i < 24) (Explore.plans demo_config))

let prepare_demo src =
  Failmpi.Run.prepare
    {
      (demo_spec ()) with
      Failmpi.Run.scenario = Some src;
      params = [];
      trace_level = Simkern.Trace.Summary;
    }

let caller = Unix.getpid ()

let in_worker_keys =
  let out, _ =
    Explore.Prefix.run ~jobs:4 ~fork:true ~measure:false ~prepare:prepare_demo
      ~summarize:(fun p _ -> (Plan.key p, Unix.getpid () <> caller))
      pool_plans
  in
  List.filter_map (fun (_, (k, w)) -> if w then Some k else None) out

(* [Ok] or the [Failure] message, and whether any child (live or zombie)
   is left afterwards. *)
let pool_failure act =
  let victim = List.hd in_worker_keys in
  let summarize p r =
    if Unix.getpid () <> caller && Plan.key p = victim then act ();
    Explore.verdict_name (Explore.verdict_of_outcome r.Failmpi.Run.outcome)
  in
  let outcome =
    match
      Explore.Prefix.run ~jobs:4 ~fork:true ~measure:false ~prepare:prepare_demo ~summarize
        pool_plans
    with
    | _ -> Ok ()
    | exception Failure msg -> Error msg
  in
  let child_left =
    match Unix.waitpid [ Unix.WNOHANG ] (-1) with
    | _ -> true
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> false
  in
  (outcome, child_left)

let raised = pool_failure (fun () -> failwith "summarize refused")
let died = pool_failure (fun () -> Unix._exit 3)

(* Codegen ignores a heal's machine: these two plans are one run. *)
let heal_prepares, heal_out =
  let count = ref 0 in
  let heal machine =
    { Plan.n_machines = 8; faults = [ { Plan.machine; anchor = Plan.After 12; kind = Plan.Heal } ] }
  in
  let out, _ =
    Explore.Prefix.run ~jobs:1 ~fork:true ~measure:false
      ~prepare:(fun p ->
        incr count;
        prepare_demo p)
      ~summarize:(fun p r -> (Plan.key p, Explore.signature r))
      [ (0, heal 0); (1, heal 3) ]
  in
  (!count, List.sort compare out)

(* ------------------------------------------------------------------ *)
(* Replays *)

let replay_j1 = Explore.run_spec ~jobs:1 ~fork:false demo_config ~spec:(demo_spec ())
let replay_j4 = Explore.run_spec ~jobs:4 ~fork:false demo_config ~spec:(demo_spec ())

let backend_replayed =
  List.map
    (fun name ->
      let spec, cfg = backend_spec name in
      (name, fst (Explore.run_spec ~jobs:4 ~fork:false cfg ~spec)))
    other_backends

let cli_replayed =
  let spec, cfg = cli_default_spec () in
  fst (Explore.run_spec ~jobs:2 ~fork:false cfg ~spec)

(* ------------------------------------------------------------------ *)
(* Fork-vs-replay equivalence *)

let json (report, _stats) = Explore.to_json report

let test_vcl_fork_equals_replay () =
  check_str "fork = replay, byte for byte" (json replay_j1) (json fork_j4)

let test_jobs_invariance () =
  check_str "fork jobs 1 = fork jobs 4" (json fork_j1) (json fork_j4);
  check_str "replay jobs 1 = replay jobs 4" (json replay_j1) (json replay_j4)

let test_sampled_faults_present () =
  let report, stats = fork_j4 in
  check_int "full campaign ran" demo_config.Explore.budget (List.length report.Explore.records);
  check_bool "sampler contributed 3-fault plans" true
    (List.exists
       (fun rc -> List.length rc.Explore.plan.Plan.faults >= 3)
       report.Explore.records);
  check_bool "the scheduler actually forked" true (stats.Explore.Prefix.forks > 0);
  check_bool "witnesses found under the seeded race" true (report.Explore.minimized <> [])

let test_backends_fork_equals_replay () =
  List.iter2
    (fun (name, forked) (name', replayed) ->
      check_str "same backend" name name';
      check_str (name ^ ": fork = replay") (Explore.to_json replayed) (Explore.to_json forked))
    backend_forked backend_replayed

(* failmpi_explore --services --targets 0 --buckets 25,3 --max-faults 2
   --budget 110: a service freeze's thaw arms the next fault's timer, so
   pairs that start with one replay in fork mode too. *)
let services_fork, services_replay =
  let spec, cfg = cli_default_spec () in
  let cfg =
    {
      (Explore.default_config ~n_machines:cfg.Explore.n_machines ~targets:[ 0 ] ~buckets:[ 25; 3 ])
      with
      Explore.budget = 110;
      kinds = Fail_lang.Fault.explorer_kinds ~freeze:None ~net:false ~services:true ~topo:false;
    }
  in
  let spec = { spec with Failmpi.Run.seed = 1L } in
  (fst (Explore.run_spec ~jobs:1 ~fork:true cfg ~spec), fst (Explore.run_spec ~jobs:2 ~fork:false cfg ~spec))

let test_services_fork_equals_replay () =
  check_int "full campaign ran" 110 (List.length services_fork.Explore.records);
  check_str "fork = replay, byte for byte" (Explore.to_json services_replay)
    (Explore.to_json services_fork)

let test_cli_default_fork_equals_replay () =
  check_int "full campaign ran" 40 (List.length cli_forked.Explore.records);
  check_str "fork = replay, byte for byte" (Explore.to_json cli_replayed)
    (Explore.to_json cli_forked)

(* ------------------------------------------------------------------ *)
(* Worker pool *)

let test_pool_bounds () =
  check_int "jobs 4 forks four workers" 4 (snd fork_j4).Explore.Prefix.forks;
  check_int "jobs 1 forks none" 0 (snd fork_j1).Explore.Prefix.forks;
  check_str "jobs 1 fork = replay" (json replay_j1) (json fork_j1);
  check_bool "workers summarized plans" true (in_worker_keys <> []);
  check_bool "the caller summarized plans" true
    (List.length in_worker_keys < List.length pool_plans)

let test_pool_failures () =
  List.iter
    (fun (what, (outcome, child_left)) ->
      (match outcome with
      | Ok () -> Alcotest.failf "%s: the campaign did not fail" what
      | Error msg -> check_bool (what ^ ": Failure names the cause") true (msg <> ""));
      check_bool (what ^ ": no child left") false child_left)
    [ ("summarize raised", raised); ("worker died", died) ];
  match (fst raised, fst died) with
  | Error raised, Error died ->
      check_str "job error" "Failure(\"summarize refused\")" raised;
      check_str "dead worker" "Prefix: a worker died without reporting" died
  | _ -> ()

(* A replay campaign creates no domain, so a fork campaign after it in
   the same process still forks its workers: [replay_j4] ran at module
   initialization, before this case. *)
let test_replay_then_fork () =
  let forked = Explore.run_spec ~jobs:2 ~fork:true demo_config ~spec:(demo_spec ()) in
  check_int "no-fork jobs 4 forks four workers" 4 (snd replay_j4).Explore.Prefix.forks;
  check_int "fork jobs 2 forks two workers" 2 (snd forked).Explore.Prefix.forks;
  check_str "no-fork jobs 4 = fork jobs 2" (json replay_j4) (json forked)

(* A width above [Par.map]'s bound forks no worker that gets no job, in
   both modes: the campaign has 3 plans. *)
let test_width_bound () =
  let cfg = { demo_config with Explore.budget = 3 } in
  let at_65 fork = Explore.run_spec ~jobs:65 ~fork cfg ~spec:(demo_spec ()) in
  let forked = at_65 true and replayed = at_65 false in
  List.iter
    (fun (what, (_, stats)) ->
      check_bool (what ^ ": forks <= 3") true (stats.Explore.Prefix.forks <= 3))
    [ ("fork", forked); ("no-fork", replayed) ];
  check_str "fork = no-fork at width 65" (json replayed) (json forked)

let test_scenario_dedup () =
  check_int "one launch for two heal-only plans" 1 heal_prepares;
  match heal_out with
  | [ (0, (k0, s0)); (1, (k1, s1)) ] ->
      check_str "first key" "heal@0+12" k0;
      check_str "second key" "heal@3+12" k1;
      check_str "one run, one signature" s0 s1
  | _ -> Alcotest.fail "expected one summary per plan"

(* ------------------------------------------------------------------ *)
(* Shrink memo *)

let test_shrink_memo () =
  let report, _ = fork_j4 in
  check_bool "has witnesses to shrink" true (report.Explore.minimized <> []);
  List.iter
    (fun m ->
      check_bool "shrinking probed the oracle" true (m.Explore.probes > 0);
      check_bool "memo saved probes" true (m.Explore.probes_saved > 0))
    report.Explore.minimized;
  (* The memo must not change the outcome: replay path shrinks the same
     witnesses to the same plans (already covered by byte-equality, but
     spell the invariant out). *)
  let replay_report, _ = replay_j1 in
  List.iter2
    (fun m m' ->
      check_str "same minimized plan" (Plan.key m.Explore.min_plan) (Plan.key m'.Explore.min_plan);
      check_int "same probes" m.Explore.probes m'.Explore.probes;
      check_int "same probes_saved" m.Explore.probes_saved m'.Explore.probes_saved)
    report.Explore.minimized replay_report.Explore.minimized

(* ------------------------------------------------------------------ *)
(* Corpus *)

let space_of cfg =
  {
    Corpus.n_machines = cfg.Explore.n_machines;
    targets = cfg.Explore.targets;
    buckets = cfg.Explore.buckets;
    kinds = cfg.Explore.kinds;
    max_faults = cfg.Explore.max_faults;
    sample_seed = cfg.Explore.sample_seed;
  }

let plan_keys report =
  List.map (fun rc -> Plan.key rc.Explore.plan) report.Explore.records

let test_corpus_roundtrip () =
  check_int "first campaign ran its budget" 20 (List.length corpus_r1.Explore.records);
  check_int "resumed campaign ran its budget" 40 (List.length corpus_r2.Explore.records);
  (* Resume skips every plan the first campaign tried: the two runs are
     disjoint, the freed budget went to fresh plans and pool mutants. *)
  let tried1 = plan_keys corpus_r1 in
  check_bool "no plan ran twice" true
    (List.for_all (fun k -> not (List.mem k tried1)) (plan_keys corpus_r2));
  match Corpus.load ~dir:corpus_dir ~space:(space_of demo_config) with
  | Error e -> Alcotest.failf "corpus did not load back: %s" e
  | Ok c ->
      check_int "two generations saved" 2 (Corpus.generation c);
      check_int "every run recorded as tried" 60
        (List.length (List.filter (Corpus.tried c) (tried1 @ plan_keys corpus_r2)));
      check_bool "pool holds coverage pioneers" true (Corpus.pool c <> []);
      check_bool "signatures accumulated" true (Corpus.seen_signatures c > 0)

let test_corpus_refusals () =
  let space = space_of demo_config in
  (* Not a corpus: a directory without a meta file. *)
  let junk = Filename.concat (Filename.get_temp_dir_name ()) "failmpi_test_notcorpus" in
  rm_rf junk;
  Sys.mkdir junk 0o755;
  let oc = open_out (Filename.concat junk "stuff") in
  close_out oc;
  (match Corpus.load ~dir:junk ~space with
  | Ok _ -> Alcotest.fail "junk directory accepted as a corpus"
  | Error e ->
      check_str "refusal message" (junk ^ " is not a failmpi-explore corpus (no meta file)") e);
  rm_rf junk;
  (* Incompatible configuration: same directory, different max_faults. *)
  let other = { space with Corpus.max_faults = space.Corpus.max_faults + 1 } in
  match Corpus.load ~dir:corpus_dir ~space:other with
  | Ok _ -> Alcotest.fail "incompatible corpus accepted"
  | Error e ->
      check_str "refusal message"
        (Printf.sprintf "corpus %s is incompatible with this configuration (corpus: %s; campaign: %s)"
           corpus_dir
           (Corpus.space_fingerprint space)
           (Corpus.space_fingerprint other))
        e

(* ------------------------------------------------------------------ *)
(* Plan.of_key *)

let test_of_key_roundtrip () =
  let plans =
    [
      { Plan.n_machines = 8; faults = [ { Plan.machine = 3; anchor = Plan.After 12; kind = Plan.Kill } ] };
      {
        Plan.n_machines = 8;
        faults =
          [
            { Plan.machine = 0; anchor = Plan.After 5; kind = Plan.Freeze { thaw = 8 } };
            { Plan.machine = 2; anchor = Plan.After 7; kind = Plan.Partition };
            { Plan.machine = 2; anchor = Plan.After 9; kind = Plan.Heal };
          ];
      };
      {
        Plan.n_machines = 10;
        faults =
          [
            { Plan.machine = 1; anchor = Plan.After 20; kind = Plan.Degrade { loss = 50; latency = 2 } };
            { Plan.machine = 7; anchor = Plan.On_reload { nth = 5; delay = 2 }; kind = Plan.Kill };
          ];
      };
    ]
  in
  List.iter
    (fun p ->
      match Plan.of_key ~n_machines:p.Plan.n_machines (Plan.key p) with
      | Ok q -> check_bool (Plan.key p) true (p = q)
      | Error e -> Alcotest.failf "of_key failed on %s: %s" (Plan.key p) e)
    plans

let test_of_key_errors () =
  (match Plan.of_key ~n_machines:8 "" with
  | Error e -> check_str "empty" "empty plan key" e
  | Ok _ -> Alcotest.fail "empty key accepted");
  (match Plan.of_key ~n_machines:8 "warp@3+12" with
  | Error e -> check_str "bad kind" "malformed fault key \"warp@3+12\"" e
  | Ok _ -> Alcotest.fail "malformed key accepted");
  (* Keys [Plan.key] never prints: a negative or non-decimal number, a
     non-canonical spelling, an unaligned service fault.  The first one's
     scenario does not even parse. *)
  List.iter
    (fun k ->
      match Plan.of_key ~n_machines:8 ("kill@0+1;" ^ k) with
      | Error e -> check_str k (Printf.sprintf "malformed fault key %S" k) e
      | Ok p -> Alcotest.failf "%s accepted as %s" k (Plan.key p))
    [
      "freeze-5@1+2";
      "kill@1+-5";
      "kill@-1+5";
      "deg-5l-2@1+3";
      "kill@1@reload-2+3";
      "freeze0x14@1+2";
      "deg+5l2@1+3";
      "kill@1_0+5";
      "kill@01+5";
      "sksched@3+5";
    ]

let () =
  Alcotest.run "explore_fork"
    [
      ( "equivalence",
        [
          Alcotest.test_case "vcl fork = replay" `Quick test_vcl_fork_equals_replay;
          Alcotest.test_case "jobs invariance" `Quick test_jobs_invariance;
          Alcotest.test_case ">= 3-fault sampled campaign" `Quick test_sampled_faults_present;
          Alcotest.test_case "all backends fork = replay" `Quick test_backends_fork_equals_replay;
          Alcotest.test_case "CLI default campaign fork = replay" `Quick
            test_cli_default_fork_equals_replay;
          Alcotest.test_case "service freeze campaign fork = replay" `Quick
            test_services_fork_equals_replay;
        ] );
      ( "pool",
        [
          Alcotest.test_case "forks within --jobs" `Quick test_pool_bounds;
          Alcotest.test_case "failures reap every worker" `Quick test_pool_failures;
          Alcotest.test_case "equal scenarios run once" `Quick test_scenario_dedup;
          Alcotest.test_case "replay then fork" `Quick test_replay_then_fork;
          Alcotest.test_case "width 65 forks at most 64" `Quick test_width_bound;
        ] );
      ("memo", [ Alcotest.test_case "shrink probes memoized" `Quick test_shrink_memo ]);
      ( "corpus",
        [
          Alcotest.test_case "save -> resume round-trip" `Quick test_corpus_roundtrip;
          Alcotest.test_case "refusal messages" `Quick test_corpus_refusals;
        ] );
      ( "plan keys",
        [
          Alcotest.test_case "of_key round-trip" `Quick test_of_key_roundtrip;
          Alcotest.test_case "of_key errors" `Quick test_of_key_errors;
        ] );
    ]
