(* The scale suite: core scaling.

   One fixed-seed, fault-free stencil run per cluster size on the
   hosts-vs-wallclock curve 256 -> 16384 (256 -> 1024 with --smoke),
   timed once, with its minor and promoted words (exact, see
   [Fixture.words]), the minor words per application message, the minor
   heap the run got from [Failmpi.Gc_policy], the share of its minor
   words that were promoted and the process's peak resident set so far.
   That peak includes what earlier points and suites left resident, so
   it compares between runs of the same suite list only: a point's own
   resident set needs a process that runs nothing else. A second,
   untimed run of the same spec counts what the run holds: its live
   words per rank after a full major collection at [census_at], in the
   last iteration. The suite refuses to
   write its file if either run did not complete, if its rank checksums
   differ from [Workload.Stencil.reference_checksum] (so the curve
   doubles as a large-scale correctness check), or if a run of
   [gated_hosts] hosts or more promotes more than [max_promoted_share]
   of its minor words: the failure of a lost or broken GC policy. *)

let hosts_curve = [ 256; 512; 1024; 2048; 4096; 8192; 16384 ]

(* Service hosts the vcl layout adds on top of the compute pool:
   coordinator, dispatcher, scheduler, 3 checkpoint servers. *)
let service_hosts = 6

let isqrt n =
  let rec find i = if i * i > n then i - 1 else find (i + 1) in
  find 1

(* A short stencil: enough iterations for the neighbour exchange to
   dominate, few enough that the 8192-host point stays a bench, not a
   campaign. *)
let params =
  { Workload.Stencil.iterations = 10; compute_time = 0.5; msg_bytes = 10_000; jitter = 0.0 }

let spec_for ~hosts =
  let n_compute = hosts - service_hosts in
  let side = isqrt n_compute in
  let n_ranks = side * side in
  let cfg =
    {
      (Mpivcl.Config.default ~n_ranks) with
      Mpivcl.Config.wave_interval = 20.0;
      init_delay_min = 0.1;
      init_delay_max = 0.1;
      term_straggler_prob = 0.0;
      store_jitter = 0.0;
      (* The historical eager all-to-all daemon mesh is quadratic; the
         stencil only talks to grid neighbours, so connect on demand. *)
      lazy_peer_mesh = true;
    }
  in
  let app = Workload.Stencil.app params ~n_ranks in
  ( n_ranks,
    {
      (Failmpi.Run.default_spec ~app ~cfg ~n_compute ~state_bytes:100_000) with
      Failmpi.Run.timeout = 600.0;
      trace_level = Simkern.Trace.Summary;
    } )

(* The application messages of one run: each rank sends to its four
   neighbours every iteration, and the closing allreduce counts as the
   2 * (ranks - 1) messages it sends, each rank's value to rank 0 and the
   total back. The minor words per message divide the whole run's words,
   set-up and daemons included, by this count. *)
let app_messages ~n_ranks =
  (4 * n_ranks * params.Workload.Stencil.iterations) + (2 * (n_ranks - 1))

(* The runtime's default minor heap promotes about 43% of a 1024-host
   run's minor words and 65% of an 8192-host run's; with the policy
   every point of the curve stays under 36%. *)
let gated_hosts = 512
let max_promoted_share = 0.40

(* The peak resident set of this process, in kB: VmHWM in
   /proc/self/status, or None where there is no such file. *)
let vm_hwm_kb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> None
  | status ->
      String.split_on_char '\n' status
      |> List.find_map (fun line ->
             match String.split_on_char ':' line with
             | [ "VmHWM"; v ] -> Scanf.sscanf_opt (String.trim v) "%d kB" Fun.id
             | _ -> None)

(* The simulated instant of the census: in the last of the stencil's
   iterations, which end at 5.80 s at every point of the curve. *)
let census_at = 5.5

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

(* The run's simulated time, once it completed with the fault-free
   checksums. *)
let checked ~hosts ~n_ranks (r : Failmpi.Run.result) =
  let sim_time =
    match r.Failmpi.Run.outcome with
    | Failmpi.Run.Completed t -> t
    | o ->
        Record.refuse "scale" "%d hosts: did not complete (%s)" hosts
          (Failmpi.Run.outcome_name o)
  in
  let reference = Workload.Stencil.reference_checksum params ~n_ranks in
  if r.Failmpi.Run.checksums <> List.init n_ranks (fun rank -> (rank, reference)) then
    Record.refuse "scale" "%d hosts: rank checksums differ from the fault-free reference" hosts;
  sim_time

(* The live words a run of [spec] adds to the process at [census_at]. *)
let census ~hosts ~n_ranks spec =
  let before = live_words () in
  let cp = Failmpi.Run.prepare spec in
  let at = ref None in
  Simkern.Engine.post_at (Failmpi.Run.checkpoint_engine cp) ~time:census_at (fun () ->
      at := Some (live_words ()));
  ignore (checked ~hosts ~n_ranks (Failmpi.Run.resume_from cp));
  match !at with
  | Some live -> live - before
  | None -> Record.refuse "scale" "%d hosts: the run ended before %g s" hosts census_at

let run ~smoke =
  List.concat_map
    (fun hosts ->
      Printf.printf "scale: %d hosts...\n%!" hosts;
      let n_ranks, spec = spec_for ~hosts in
      let words = Fixture.words () in
      let r, wall_ms = Fixture.timed (fun () -> Failmpi.Run.execute spec) in
      let minor_words, promoted_words = words () in
      let sim_time = checked ~hosts ~n_ranks r in
      let hwm_kb = vm_hwm_kb () in
      let live = census ~hosts ~n_ranks spec in
      let path m = Printf.sprintf "hosts/%d/%s" hosts m in
      let promoted_share = promoted_words /. minor_words in
      if hosts >= gated_hosts && promoted_share > max_promoted_share then
        Record.refuse "scale" "%d hosts: %.1f%% of the minor words were promoted (at most %.0f%%)"
          hosts (100.0 *. promoted_share) (100.0 *. max_promoted_share);
      [
        Record.int ~layer:"core" (path "ranks") "count" n_ranks;
        Record.num ~layer:"core" (path "wall_ms") "ms" wall_ms;
        Record.num ~layer:"core" (path "sim_time_s") "s" sim_time;
        Record.num ~layer:"simkern" (path "minor_words") "words" minor_words;
        Record.num ~layer:"simkern" (path "promoted_words") "words" promoted_words;
        Record.num ~layer:"simkern" (path "minor_words_per_message") "words"
          (minor_words /. float_of_int (app_messages ~n_ranks));
        Record.int ~layer:"simkern" (path "minor_heap_words") "words"
          (Gc.get ()).Gc.minor_heap_size;
        Record.num ~layer:"simkern" (path "promoted_share") "ratio" promoted_share;
        Record.make ~layer:"core" (path "vm_hwm_kb") "kB"
          (Record.opt (fun kb -> Record.Num (float_of_int kb)) hwm_kb);
        Record.num ~layer:"core" (path "live_words_per_rank") "words"
          (float_of_int live /. float_of_int n_ranks);
      ])
    (List.filter (fun h -> h <= if smoke then 1024 else max_int) hosts_curve)
