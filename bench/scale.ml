(* The scale suite: core scaling.

   One fixed-seed, fault-free stencil run per cluster size on the
   hosts-vs-wallclock curve 256 -> 16384 (256 -> 1024 with --smoke),
   timed once, with its minor and promoted words and the minor words per
   application message. The suite refuses to write its file if a run did
   not complete or its rank checksums differ from
   [Workload.Stencil.reference_checksum], so the curve doubles as a
   large-scale correctness check. *)

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

let run ~smoke =
  List.concat_map
    (fun hosts ->
      Printf.printf "scale: %d hosts...\n%!" hosts;
      let n_ranks, spec = spec_for ~hosts in
      let g0 = Gc.quick_stat () in
      let r, wall_ms = Fixture.timed (fun () -> Failmpi.Run.execute spec) in
      let g1 = Gc.quick_stat () in
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
      let path m = Printf.sprintf "hosts/%d/%s" hosts m in
      let minor_words = g1.Gc.minor_words -. g0.Gc.minor_words in
      [
        Record.int ~layer:"core" (path "ranks") "count" n_ranks;
        Record.num ~layer:"core" (path "wall_ms") "ms" wall_ms;
        Record.num ~layer:"core" (path "sim_time_s") "s" sim_time;
        Record.num ~layer:"simkern" (path "minor_words") "words" minor_words;
        Record.num ~layer:"simkern" (path "promoted_words") "words"
          (g1.Gc.promoted_words -. g0.Gc.promoted_words);
        Record.num ~layer:"simkern" (path "minor_words_per_message") "words"
          (minor_words /. float_of_int (app_messages ~n_ranks));
      ])
    (List.filter (fun h -> h <= if smoke then 1024 else max_int) hosts_curve)
