(* What several suites share: the 4-rank BT and stencil runs, the
   observables two runs must agree on, the measurement of a batch of
   fixed-seed runs, the records of one run's verdict and one Bechamel
   OLS set-up. *)

let n_ranks = 4

(* One 4-rank class A BT run with checksum validation; [cfg] edits the
   default configuration. *)
let bt4 ?(n_machines = Experiments.Harness.machines_for n_ranks) ?scenario ~seed cfg =
  Experiments.Harness.run_bt
    ~cfg:(cfg (Mpivcl.Config.default ~n_ranks))
    ~klass:Workload.Bt_model.A ~n_ranks ~n_machines ~scenario ~seed ()

(* One small 4-rank stencil experiment cycle on [n_compute] hosts,
   checked against the fault-free reference checksum. *)
let stencil ?(iterations = 15) ?protocol ?scenario ~n_compute ~seed () =
  let params =
    { Workload.Stencil.iterations; compute_time = 0.4; msg_bytes = 4_000; jitter = 0.0 }
  in
  let base = Mpivcl.Config.default ~n_ranks in
  let cfg =
    {
      base with
      Mpivcl.Config.protocol = Option.value protocol ~default:base.Mpivcl.Config.protocol;
      wave_interval = 5.0;
      term_straggler_prob = 0.0;
    }
  in
  let app = Workload.Stencil.app params ~n_ranks in
  Failmpi.Run.execute
    ~expected_checksum:(Workload.Stencil.reference_checksum params ~n_ranks)
    {
      (Failmpi.Run.default_spec ~app ~cfg ~n_compute ~state_bytes:500_000) with
      Failmpi.Run.scenario;
      seed;
      timeout = 120.0;
    }

(* What a change that must not alter the simulation has to leave equal:
   outcome and time, faults, checksums and, unless [~counters:false],
   every backend counter. *)
type observation = string * int * (int * int) list * (string * int) list

let observables ?(counters = true) (r : Failmpi.Run.result) : observation =
  ( (match r.Failmpi.Run.outcome with
    | Failmpi.Run.Completed t -> Printf.sprintf "completed:%.6f" t
    | o -> Failmpi.Run.outcome_name o),
    r.Failmpi.Run.injected_faults,
    r.Failmpi.Run.checksums,
    if counters then Failmpi.Backend.Metrics.counters r.Failmpi.Run.metrics else [] )

let counter r name =
  Option.value ~default:0 (Failmpi.Backend.Metrics.find r.Failmpi.Run.metrics name)

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, (Unix.gettimeofday () -. t0) *. 1e3)

(* [words ()] starts counting this domain's allocation and returns the
   function that stops it: the minor and the promoted words in between.
   [Gc.minor_words] is exact to the word; [Gc.quick_stat]'s counters
   move only when a minor collection ends, so each promoted-words read
   comes after a [Gc.minor]. *)
let words () =
  Gc.minor ();
  let p0 = (Gc.quick_stat ()).Gc.promoted_words and m0 = Gc.minor_words () in
  fun () ->
    let m1 = Gc.minor_words () in
    Gc.minor ();
    (m1 -. m0, (Gc.quick_stat ()).Gc.promoted_words -. p0)

type sample = { wall_ms : float; words : float; obs : observation list }

(* [reps] runs at seeds 1..reps: the mean wall milliseconds and minor
   words per run, and every run's observables. Minor words are counted
   on this domain, so the count is the same on every pass. *)
let sample ?counters ~reps run =
  let w0 = Gc.minor_words () and t0 = Unix.gettimeofday () in
  let obs = List.init reps (fun i -> observables ?counters (run ~seed:(Int64.of_int (i + 1)))) in
  let per x = x /. float_of_int reps in
  {
    wall_ms = per ((Unix.gettimeofday () -. t0) *. 1e3);
    words = per (Gc.minor_words () -. w0);
    obs;
  }

(* Records [base] and each [(name, sample, diverged)] variant under
   [group]: wall milliseconds and minor words per run, and each
   variant's overhead over [base] in both. A variant whose observables
   differ from [base]'s is refused with the message [diverged], and so
   is one that allocates more than [limit_pct] percent more minor words.
   The wall-time overhead is recorded and never gated: runs of a few
   milliseconds are too noisy to hold a budget of a few percent. *)
let overheads ~suite ~group ~limit_pct (base_name, base) variants =
  let path name m = String.concat "/" [ group; name; m ] in
  let measured name s =
    [
      Record.num ~layer:"core" (path name "wall_ms") "ms" s.wall_ms;
      Record.num ~layer:"simkern" (path name "minor_words") "words" s.words;
    ]
  in
  measured base_name base
  @ List.concat_map
      (fun (name, s, diverged) ->
        if s.obs <> base.obs then Record.refuse suite "%s" diverged;
        let words_pct = (s.words -. base.words) /. base.words *. 100.0 in
        if words_pct > limit_pct then
          Record.refuse suite "%s allocates %.4f%% more minor words per run than %s (limit %g%%)"
            name words_pct base_name limit_pct;
        measured name s
        @ [
            Record.num ~layer:"core" (path name "overhead_pct") "%"
              ((s.wall_ms -. base.wall_ms) /. base.wall_ms *. 100.0);
            Record.num ~layer:"simkern" (path name "minor_words_overhead_pct") "%" words_pct;
          ])
      variants

(* The records of one run under [prefix]: wall time, verdict, simulated
   completion time (null unless it completed), injected faults, whether
   the checksums matched the reference (null when unchecked), then the
   named backend counters with their layers. *)
let verdict ?(counters = []) prefix ~wall_ms (r : Failmpi.Run.result) =
  let path m = prefix ^ "/" ^ m in
  [
    Record.num ~layer:"core" (path "wall_time_ms") "ms" wall_ms;
    Record.make ~layer:"core" (path "outcome") "verdict"
      (Str (Failmpi.Run.outcome_name r.Failmpi.Run.outcome));
    Record.make ~layer:"core" (path "sim_time_s") "s"
      (match r.Failmpi.Run.outcome with Failmpi.Run.Completed t -> Num t | _ -> Null);
    Record.int ~layer:"fci" (path "injected_faults") "count" r.Failmpi.Run.injected_faults;
    Record.make ~layer:"core" (path "checksum_ok") "bool"
      (Record.opt (fun b -> Record.Bool b) r.Failmpi.Run.checksum_ok);
  ]
  @ List.map
      (fun (name, layer) -> Record.int ~layer (path name) "count" (counter r name))
      counters

let net_counters = [ ("net_dropped", "simnet"); ("net_retransmits", "simnet") ]

(* Nanoseconds per run (an OLS fit over the monotonic clock) and r² of
   one Bechamel test; None where the fit failed. *)
let ols test =
  let open Bechamel in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  Hashtbl.fold
    (fun _ r fit ->
      match Analyze.OLS.estimates r with
      | Some [ ns ] -> Some (ns, Analyze.OLS.r_square r)
      | Some _ | None -> fit)
    (Analyze.all ols instance (Benchmark.all cfg [ instance ] test))
    None

(* The records of one OLS fit: time per run and r², null where missing. *)
let fit_records ~layer name fit =
  [
    Record.make ~layer (name ^ "/time_per_run") "ns"
      (Record.opt (fun (ns, _) -> Record.Num ns) fit);
    Record.make ~layer (name ^ "/r_square") ""
      (Record.opt (fun r2 -> Record.Num r2) (Option.bind fit snd));
  ]
