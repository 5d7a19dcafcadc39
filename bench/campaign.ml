(* The campaign suite: campaign parallelism and trace overhead.

   Part 1 — the same mini-campaign (a BT-9 fault-frequency sweep) timed
   at 1, 2 and 4 domains through Harness.campaign. Every variant's
   results must equal the sequential run's before any timing is
   recorded: a speedup obtained by diverging is a bug, not a win. The
   header records the machine's core count, so a 1-core runner showing
   speedup 1.0 is honest rather than a regression.

   Part 2 — one fixed-seed run traced at Full vs Summary level, with
   wall time, allocated bytes, minor words and retained trace entries
   for each. Summary retains several times fewer entries; the
   simulation itself must be the same under both levels, and Summary
   must save more minor words than the records of the entries it drops,
   which it does only if gated-out details go unformatted. *)

let reps = 6
let n_ranks = 9
let n_machines = Experiments.Harness.machines_for n_ranks
let scenario = Some (Fail_lang.Paper_scenarios.frequency ~n_machines ~period:25)

let run_bt ~trace_level ~scenario ~seed =
  Experiments.Harness.run_bt ~trace_level ~klass:Workload.Bt_model.A ~n_ranks ~n_machines
    ~scenario ~seed ()

let cells =
  [
    Experiments.Harness.cell ~tag:"bt-faulty" ~reps ~base_seed:500
      (run_bt ~trace_level:Simkern.Trace.Summary ~scenario);
    Experiments.Harness.cell ~tag:"bt-clean" ~reps ~base_seed:900
      (run_bt ~trace_level:Simkern.Trace.Summary ~scenario:None);
  ]

let run ~smoke:_ =
  let timings =
    List.map
      (fun jobs ->
        Printf.printf "campaign: --jobs %d...\n%!" jobs;
        let results, wall_ms = Fixture.timed (fun () -> Experiments.Harness.campaign ~jobs cells) in
        let observed = List.map (fun (tag, rs) -> (tag, List.map Fixture.observables rs)) results in
        (jobs, wall_ms /. 1e3, observed))
      [ 1; 2; 4 ]
  in
  let _, seq_wall, seq_observed = List.hd timings in
  List.iter
    (fun (jobs, _, observed) ->
      if observed <> seq_observed then
        Record.refuse "campaign" "--jobs %d diverged from the sequential campaign" jobs)
    timings;
  Printf.printf "campaign: trace overhead, Full vs Summary...\n%!";
  let traced level =
    let before = Gc.allocated_bytes () and w0 = Gc.minor_words () in
    let r, wall_ms = Fixture.timed (fun () -> run_bt ~trace_level:level ~scenario ~seed:500L) in
    let allocated_mb = (Gc.allocated_bytes () -. before) /. 1e6 in
    let words = Gc.minor_words () -. w0 in
    (r, wall_ms /. 1e3, allocated_mb, words, Simkern.Trace.length r.Failmpi.Run.trace)
  in
  let ((full_r, _, _, full_w, full_n) as full) = traced Simkern.Trace.Full in
  let ((summary_r, _, _, summary_w, summary_n) as summary) = traced Simkern.Trace.Summary in
  if Fixture.observables full_r <> Fixture.observables summary_r then
    Record.refuse "campaign" "trace level changed the simulation";
  (* A kept entry costs one 5-word minor-heap record: a header and four
     fields. If gated-out details were formatted, those records would be
     all that Summary saves over Full. *)
  let dropped = full_n - summary_n in
  if summary_w >= full_w -. (5. *. float_of_int dropped) then
    Record.refuse "campaign"
      "Summary allocated %.0f minor words against Full's %.0f, saving no more than the records \
       of the %d entries it dropped: gated-out details are formatted"
      summary_w full_w dropped;
  [ Record.int ~layer:"par" "runs" "count" (List.length cells * reps) ]
  @ List.concat_map
      (fun (jobs, wall, _) ->
        [
          Record.num ~layer:"par" (Printf.sprintf "jobs/%d/wall_time_s" jobs) "s" wall;
          Record.num ~layer:"par" (Printf.sprintf "jobs/%d/speedup" jobs) "x" (seq_wall /. wall);
        ])
      timings
  @ List.concat_map
      (fun (level, (_, wall, mb, words, n)) ->
        [
          Record.num ~layer:"core" ("trace_overhead/" ^ level ^ "/wall_time_s") "s" wall;
          Record.num ~layer:"simkern" ("trace_overhead/" ^ level ^ "/allocated_mb") "MB" mb;
          Record.num ~layer:"simkern" ("trace_overhead/" ^ level ^ "/minor_words") "words" words;
          Record.int ~layer:"simkern" ("trace_overhead/" ^ level ^ "/trace_entries") "count" n;
        ])
      [ ("full", full); ("summary", summary) ]
  @ [
      Record.num ~layer:"simkern" "trace_overhead/entry_ratio" "x"
        (float_of_int full_n /. float_of_int summary_n);
    ]
