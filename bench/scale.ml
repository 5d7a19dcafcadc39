(* Core-scaling benchmark, written to BENCH_scale.json (CI runs a
   bounded variant as a smoke step and uploads the artifact).

   One fixed-seed, fault-free stencil run per cluster size on the
   hosts-vs-wallclock curve 256 -> 16384, timed once. The bench refuses
   to report a point whose run did not complete or whose rank checksums
   differ from [Workload.Stencil.reference_checksum], so the curve
   doubles as a large-scale correctness check. The output records the
   core count and OCaml version it was measured on.

   Usage: scale.exe [OUT.json [MAX_HOSTS]] — CI passes a small
   MAX_HOSTS to bound the smoke run; the full curve is the default. *)

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

let timed ~hosts =
  let n_ranks, spec = spec_for ~hosts in
  let t0 = Unix.gettimeofday () in
  let r = Failmpi.Run.execute spec in
  let wall_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
  (n_ranks, wall_ms, r)

let () =
  let out, max_hosts =
    match Sys.argv with
    | [| _; path; cap |] -> (path, int_of_string cap)
    | [| _; path |] -> (path, max_int)
    | _ -> ("BENCH_scale.json", max_int)
  in
  let curve = List.filter (fun h -> h <= max_hosts) hosts_curve in
  if curve = [] then begin
    prerr_endline "scale bench: MAX_HOSTS below the smallest curve point";
    exit 1
  end;
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\n\
       \  \"workload\": \"stencil, %d iterations, fault-free, non-blocking vcl\",\n\
       \  \"cores\": %d, \"ocaml\": \"%s\",\n\
       \  \"curve\": [\n"
       params.Workload.Stencil.iterations
       (Domain.recommended_domain_count ())
       Sys.ocaml_version);
  List.iteri
    (fun i hosts ->
      Printf.printf "scale: %d hosts...\n%!" hosts;
      let n_ranks, wall_ms, r = timed ~hosts in
      let fail why =
        Printf.eprintf "scale bench: %d hosts: %s\n" hosts why;
        exit 1
      in
      let sim_time =
        match r.Failmpi.Run.outcome with
        | Failmpi.Run.Completed t -> t
        | o -> fail ("did not complete (" ^ Failmpi.Run.outcome_name o ^ ")")
      in
      let reference = Workload.Stencil.reference_checksum params ~n_ranks in
      if r.Failmpi.Run.checksums <> List.init n_ranks (fun rank -> (rank, reference)) then
        fail "rank checksums differ from the fault-free reference";
      Buffer.add_string buf
        (Printf.sprintf
           "    { \"hosts\": %d, \"ranks\": %d, \"wall_ms\": %.1f, \"sim_time_s\": %.1f }%s\n"
           hosts n_ranks wall_ms sim_time
           (if i = List.length curve - 1 then "" else ",")))
    curve;
  Buffer.add_string buf "  ]\n}\n";
  let oc = open_out out in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s (%d curve points)\n" out (List.length curve)
