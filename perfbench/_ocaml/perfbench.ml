(* The FAIL-MPI benchmark's measuring process: one workload per process.

   Usage:
     perfbench.exe WORKLOAD --seed N --units U --trace 0|1 --jobs J
                   [--small] [--corrupt-checksum] [--spans FILE]

   WORKLOAD is families-bt49, scale-8k or explore-mixed (../README.md
   says why each exists).  With --trace 0 the process runs exactly U
   measured units and then set-up passes, and reports the end-to-end
   metrics.
   With --trace 1 it runs one untraced unit and one traced unit (a span
   around every call the benchmark makes into a layer) and reports the
   per-layer metrics, each span layer's self time and the tracing
   overhead.

   Every unit digests everything it simulated and checks its outputs
   (checksums, completion, explorer replays); all units must agree on
   the digest.  The last stdout line is "RESULT " followed by one JSON
   object; ../run.py builds this program, launches it, and turns that
   object into the benchmark's result line.  A failed check still prints
   RESULT, with "correct": false and no metrics. *)

type opts = {
  workload : string;
  seed : int;
  units : int;
  trace : bool;
  jobs : int;
  small : bool;
  corrupt : bool;  (** expect a wrong checksum on one run (smoke test) *)
  spans_file : string option;
}

(* ---------- metric names ---------- *)

(* These lists are the benchmark's contract: BENCHMARK.json names the
   same metrics with the same units, and the smoke test checks that every
   one is printed. *)
let end_to_end_units =
  [
    ("setup_s", "s");
    ("wall_s", "s");
    ("cpu_s", "s");
    ("peak_heap_mb", "MiB");
    ("runs_per_s", "1/s");
    ("runs_per_cpu_h", "1/h");
  ]

(* Layers with a span: the benchmark calls their public functions. *)
let span_layers = [ "fail_lang"; "core"; "experiments"; "explore" ]

(* Layers whose work runs inside another layer's call: seen from outside
   the program they show only as counters. *)
let counter_layers =
  [ "simkern"; "simnet"; "simos"; "simtopo"; "fci"; "mpivcl"; "mpirep"; "mpiulfm"; "par" ]

let measured_units =
  [
    ("fail_lang.compile_ms", "ms");
    ("core.prepare_s", "s");
    ("core.resume_s", "s");
    ("core.run_p50_s", "s");
    ("core.run_p66_s", "s");
    ("mpivcl.vcl_run_s", "s");
    ("mpivcl.blocking_run_s", "s");
    ("mpivcl.v2_run_s", "s");
    ("mpirep.run_s", "s");
    ("mpiulfm.run_s", "s");
    ("mpivcl.recoveries", "count");
    ("mpivcl.committed_waves", "count");
    ("mpirep.failovers", "count");
    ("mpirep.respawns", "count");
    ("mpiulfm.agree_ballots", "count");
    ("fci.injected_faults", "count");
    ("par.busy_s", "s");
    ("par.idle_s", "s");
    ("simkern.sim_s_per_host_s", "s/s");
    ("simkern.minor_words", "words");
    ("simkern.promoted_words", "words");
    ("simkern.major_collections", "count");
    ("simkern.trace_entries", "count");
    ("explore.plans_ms", "ms");
    ("explore.forks", "count");
    ("explore.pauses", "count");
    ("explore.fork_ms", "ms");
    ("explore.snapshot_events_max", "count");
    ("explore.shrink_probes", "count");
    ("explore.memo_hits", "count");
    ("explore.signatures", "count");
    ("simnet.net_dropped", "count");
    ("simnet.net_retransmits", "count");
    ("simnet.net_conn_timeouts", "count");
  ]

let per_layer_units =
  measured_units
  @ List.map (fun l -> ("self." ^ l ^ "_s", "s")) span_layers
  @ [ ("trace.overhead_pct", "%") ]

(* ---------- clocks and statistics ---------- *)

let now = Unix.gettimeofday

(* Process time plus reaped children: forked explorer branches are
   waited on, so their time rolls up; domains are threads of this
   process and count directly. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime +. t.Unix.tms_cutime +. t.Unix.tms_cstime

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let sorted xs = Array.of_list (List.sort Float.compare xs)

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "median of no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile, [p] in (0, 1]; 0 over no samples, which
   only a workload that times no single run reports. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let fsum f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs

(* ---------- spans ---------- *)

(* A span around each call into a layer, named "<layer>.<function>".
   Spans stay in memory and are written out when the process ends.
   Recording is off for every end-to-end measurement. *)
module Span = struct
  type t = { id : int; parent : int; name : string; start : float; stop : float }

  let on = ref false
  let next_id = Atomic.make 1
  let lock = Mutex.create ()
  let recorded : t list ref = ref []

  (* Innermost open span of the calling domain; 0 at the root. *)
  let current = Domain.DLS.new_key (fun () -> 0)
  let id () = Domain.DLS.get current

  (* [parent] crosses domains: a campaign's jobs run on pool workers. *)
  let record ?parent name f =
    if not !on then f ()
    else begin
      let id = Atomic.fetch_and_add next_id 1 in
      let outer = Domain.DLS.get current in
      let parent = Option.value parent ~default:outer in
      Domain.DLS.set current id;
      let start = now () in
      Fun.protect f ~finally:(fun () ->
          let stop = now () in
          Domain.DLS.set current outer;
          Mutex.lock lock;
          recorded := { id; parent; name; start; stop } :: !recorded;
          Mutex.unlock lock)
    end

  let all () = List.rev !recorded
  let dur s = s.stop -. s.start

  let layer s =
    match String.index_opt s.name '.' with Some i -> String.sub s.name 0 i | None -> s.name

  let total name = fsum (fun s -> if s.name = name then dur s else 0.0) (all ())

  (* Self time: a span's duration minus the union of its children's
     intervals (children of a campaign overlap: they run in parallel). *)
  let self_by_layer () =
    let spans = all () in
    let kids = Hashtbl.create 256 in
    List.iter (fun s -> Hashtbl.add kids s.parent s) spans;
    let by_layer = Hashtbl.create 16 in
    List.iter
      (fun s ->
        let covered, _ =
          Hashtbl.find_all kids s.id
          |> List.map (fun c -> (Float.max c.start s.start, Float.min c.stop s.stop))
          |> List.sort compare
          |> List.fold_left
               (fun (acc, reach) (a, b) ->
                 let a = Float.max a reach in
                 if b > a then (acc +. (b -. a), b) else (acc, reach))
               (0.0, neg_infinity)
        in
        let l = layer s in
        let self, count = Option.value ~default:(0.0, 0) (Hashtbl.find_opt by_layer l) in
        Hashtbl.replace by_layer l (self +. dur s -. covered, count + 1))
      spans;
    by_layer

  let write path =
    let oc = open_out path in
    output_string oc "[\n";
    List.iteri
      (fun i s ->
        Printf.fprintf oc "%s{\"id\": %d, \"parent\": %d, \"name\": %S, \"start\": %.6f, \"end\": %.6f}\n"
          (if i = 0 then "  " else ", ")
          s.id s.parent s.name s.start s.stop)
      (all ());
    output_string oc "]\n";
    close_out oc
end

(* ---------- runs, observables and checks ---------- *)

let outcome_text = function
  | Failmpi.Run.Completed t -> Printf.sprintf "completed@%h" t
  | Failmpi.Run.Degraded { at; survivors } -> Printf.sprintf "degraded@%h/%d" at survivors
  | Failmpi.Run.Aborted why -> "aborted:" ^ why
  | o -> Failmpi.Run.outcome_name o

(* One simulated run the benchmark timed by itself.  [result] keeps
   everything but the trace: holding every run's trace until the unit
   ends would make the heap measure the benchmark, not the program. *)
type timed_run = {
  backend : string;
  result : Failmpi.Run.result;
  trace_entries : int;
  wall : float;  (** host seconds of the whole run *)
  phases : (float * float * float) option;
      (** prepare and resume host seconds and the simulated end time,
          when the benchmark drove Run.prepare / Run.resume_from *)
}

let timed_run ~backend ~wall ?phases (r : Failmpi.Run.result) =
  {
    backend;
    result = { r with Failmpi.Run.trace = Simkern.Trace.create () };
    trace_entries = Simkern.Trace.length r.Failmpi.Run.trace;
    wall;
    phases;
  }

(* One line of the observables digest: everything a run simulated. *)
let observe buf ~label run =
  let r = run.result in
  Printf.bprintf buf "%s %s faults=%d ok=%s trace=%d chk=[%s] counters=[%s]\n" label
    (outcome_text r.Failmpi.Run.outcome)
    r.Failmpi.Run.injected_faults
    (match r.Failmpi.Run.checksum_ok with Some b -> string_of_bool b | None -> "-")
    run.trace_entries
    (String.concat ";" (List.map (fun (k, v) -> Printf.sprintf "%d:%d" k v) r.Failmpi.Run.checksums))
    (String.concat ";"
       (List.map
          (fun (k, v) -> Printf.sprintf "%s=%d" k v)
          (Failmpi.Backend.Metrics.counters r.Failmpi.Run.metrics)))

(* A completed or degraded run must carry a verified checksum. *)
let checksum_holds (r : Failmpi.Run.result) =
  match r.Failmpi.Run.outcome with
  | Failmpi.Run.Completed _ | Failmpi.Run.Degraded _ -> r.Failmpi.Run.checksum_ok = Some true
  | _ -> true

let counter (r : Failmpi.Run.result) name =
  Option.value ~default:0 (Failmpi.Backend.Metrics.find r.Failmpi.Run.metrics name)

let gc_counters f =
  let g0 = Gc.quick_stat () in
  let r = f () in
  let g1 = Gc.quick_stat () in
  ( r,
    [
      ("simkern.minor_words", g1.Gc.minor_words -. g0.Gc.minor_words);
      ("simkern.promoted_words", g1.Gc.promoted_words -. g0.Gc.promoted_words);
      ( "simkern.major_collections",
        float_of_int (g1.Gc.major_collections - g0.Gc.major_collections) );
    ] )

let backend_metric = function
  | "vcl" -> "mpivcl.vcl_run_s"
  | "blocking" -> "mpivcl.blocking_run_s"
  | "v2" -> "mpivcl.v2_run_s"
  | "replication" -> "mpirep.run_s"
  | "ulfm" -> "mpiulfm.run_s"
  | b -> failwith ("perfbench: no metric for backend " ^ b)

let rollback_backends = [ "vcl"; "blocking"; "v2" ]

(* Per-layer metrics derived from the runs a unit timed by itself.  Each
   is a sum (or percentile) over those runs, so a workload that runs
   none on a backend truly measures 0 there. *)
let run_metrics runs =
  let f = float_of_int in
  let sum pred g = fsum (fun r -> if pred r.backend then g r else 0.0) runs in
  let all _ = true in
  let count name pred = sum pred (fun r -> f (counter r.result name)) in
  let phase g = sum all (fun r -> match r.phases with Some p -> g p | None -> 0.0) in
  let resume = phase (fun (_, s, _) -> s) in
  let walls = List.map (fun r -> r.wall) runs in
  [
    ("core.prepare_s", phase (fun (s, _, _) -> s));
    ("core.resume_s", resume);
    ("core.run_p50_s", percentile 0.5 walls);
    ("core.run_p66_s", percentile 0.66 walls);
  ]
  @ List.map
      (fun b -> (backend_metric b, sum (( = ) b) (fun r -> r.wall)))
      [ "vcl"; "blocking"; "v2"; "replication"; "ulfm" ]
  @ [
      ("mpivcl.recoveries", count "recoveries" (fun b -> List.mem b rollback_backends));
      ("mpivcl.committed_waves", count "committed_waves" (fun b -> List.mem b rollback_backends));
      ("mpirep.failovers", count "failovers" (( = ) "replication"));
      ("mpirep.respawns", count "respawns" (( = ) "replication"));
      ("mpiulfm.agree_ballots", count "agree_ballots" (( = ) "ulfm"));
      ("fci.injected_faults", sum all (fun r -> f r.result.Failmpi.Run.injected_faults));
      ( "simkern.sim_s_per_host_s",
        if resume > 0.0 then phase (fun (_, _, e) -> e) /. resume else 0.0 );
      ("simkern.trace_entries", sum all (fun r -> f r.trace_entries));
      ("simnet.net_dropped", count "net_dropped" all);
      ("simnet.net_retransmits", count "net_retransmits" all);
      ("simnet.net_conn_timeouts", count "net_conn_timeouts" all);
    ]

(* Run [spec] through Run.prepare and Run.resume_from, timing each. *)
let run_phased ?parent ?expected_checksum ~backend spec =
  let t0 = now () in
  let cp, prepare_s =
    timed (fun () ->
        Span.record ?parent "core.prepare" (fun () ->
            Failmpi.Run.prepare ?expected_checksum spec))
  in
  let result, resume_s =
    timed (fun () -> Span.record ?parent "core.resume_from" (fun () -> Failmpi.Run.resume_from cp))
  in
  let sim_end = Simkern.Engine.now (Failmpi.Run.checkpoint_engine cp) in
  timed_run ~backend ~wall:(now () -. t0) ~phases:(prepare_s, resume_s, sim_end) result

(* Compile each scenario once under a span; the traced pass only. *)
let compile_ms scenarios =
  List.iter
    (fun src ->
      Span.record "fail_lang.compile_source" (fun () ->
          ignore (Fail_lang.Compile.compile_source src)))
    scenarios;
  [ ("fail_lang.compile_ms", 1e3 *. Span.total "fail_lang.compile_source") ]

(* Metrics of a layer the workload makes no call into: 0 by measurement,
   listed by name so that no metric is ever filled in by default. *)
let absent names = List.map (fun n -> (n, 0.0)) names

let explore_metrics =
  [
    "explore.plans_ms";
    "explore.forks";
    "explore.pauses";
    "explore.fork_ms";
    "explore.snapshot_events_max";
    "explore.shrink_probes";
    "explore.memo_hits";
    "explore.signatures";
  ]

(* What one measured unit of a workload produced. *)
type unit_result = {
  wall : float;  (** host seconds of the unit's timed part *)
  cpu : float;
  runs : int;  (** simulated runs (fault plans) the unit completed *)
  attempted : int;  (** checked operations *)
  failed : int;
  digest : string;
  layer : (string * float) list;  (** per-layer metrics this unit measured *)
}

type workload = {
  setup : unit -> unit;  (** one set-up pass: spec, compile, prepare, plan stream *)
  setup_passes : int;  (** set-up is short next to a unit: its median over this many *)
  run_unit : unit -> unit_result;
  traced_extra : unit -> (string * float) list;
      (** passes that only the traced run makes, after its unit *)
}

let unit_of ~wall ~cpu ~runs ~checks ~buf ~layer =
  {
    wall;
    cpu;
    runs;
    attempted = List.length checks;
    failed = List.length (List.filter not checks);
    digest = Digest.to_hex (Digest.string (Buffer.contents buf));
    layer;
  }

(* ---------- families-bt49 ---------- *)

(* BT-49 class B, every registered backend at its own allocation, under
   {fault-free, one fault every 50 s} x 3 seeds: 30 runs, one campaign. *)
module Families = struct
  let n_ranks = 49
  let replicas = 2
  let klass = Workload.Bt_model.B
  let periods = [ None; Some 50 ]

  let spec_of (module B : Failmpi.Backend.S) period ~seed =
    let n_machines = B.default_machines ~n_ranks ~replicas in
    let cfg =
      { (Mpivcl.Config.default ~n_ranks) with Mpivcl.Config.protocol = B.protocol ~replicas }
    in
    let scenario =
      Option.map (fun period -> Fail_lang.Paper_scenarios.frequency ~n_machines ~period) period
    in
    { (Experiments.Harness.bt_spec ~cfg ~klass ~n_ranks ~n_machines ~scenario ()) with
      Failmpi.Run.seed }

  let make o =
    let reps = if o.small then 1 else 3 in
    let base_seed = 100 + (3 * o.seed) in
    let cells =
      List.concat_map
        (fun period -> List.map (fun b -> (b, period)) (Failmpi.Backend.all ()))
        periods
    in
    let seeds = List.init reps (fun i -> Int64.of_int (base_seed + i)) in
    let expected = Workload.Bt_model.reference_checksum klass ~n_ranks in
    let specs () =
      List.concat_map (fun (b, period) -> List.map (fun seed -> spec_of b period ~seed) seeds) cells
    in
    let setup () = List.iter (fun spec -> ignore (Failmpi.Run.prepare spec)) (specs ()) in
    let run_unit () =
      let lock = Mutex.create () and runs = ref [] in
      let job ~camp i (b, period) ~seed =
        let (module B : Failmpi.Backend.S) = b in
        (* --corrupt-checksum: the first fault-free run expects a wrong
           answer, so a correct simulation must fail its check. *)
        let expected_checksum =
          if o.corrupt && i = 0 && seed = List.hd seeds then expected + 1 else expected
        in
        let label = Printf.sprintf "%s/%d/%Ld" B.name i seed in
        let run =
          try Ok (run_phased ~parent:camp ~expected_checksum ~backend:B.name (spec_of b period ~seed))
          with e -> Error (Printexc.to_string e)
        in
        Mutex.lock lock;
        runs := ((i, seed), label, run) :: !runs;
        Mutex.unlock lock;
        (* The campaign's own result list is unused: [runs] holds
           everything, including runs that raised. *)
        match run with
        | Ok r -> r.result
        | Error msg ->
            {
              Failmpi.Run.outcome = Failmpi.Run.Aborted msg;
              injected_faults = 0;
              metrics = Failmpi.Backend.Metrics.zero;
              checksums = [];
              checksum_ok = None;
              trace = Simkern.Trace.create ();
            }
      in
      let c0 = cpu_s () and t0 = now () in
      let (_ : _ list), gc =
        gc_counters (fun () ->
            Span.record "experiments.campaign" (fun () ->
                let camp = Span.id () in
                Experiments.Harness.campaign ~jobs:o.jobs
                  (List.mapi
                     (fun i cell ->
                       Experiments.Harness.cell ~tag:i ~reps ~base_seed (job ~camp i cell))
                     cells)))
      in
      let wall = now () -. t0 and cpu = cpu_s () -. c0 in
      let runs = List.sort (fun (a, _, _) (b, _, _) -> compare a b) !runs in
      let buf = Buffer.create 8192 in
      let checks =
        List.map
          (fun (_, label, run) ->
            match run with
            | Ok r ->
                observe buf ~label r;
                checksum_holds r.result
            | Error msg ->
                Printf.bprintf buf "%s raised %s\n" label msg;
                Printf.printf "families-bt49: %s raised %s\n%!" label msg;
                false)
          runs
      in
      let ok = List.filter_map (fun (_, _, run) -> Result.to_option run) runs in
      let busy = fsum (fun (r : timed_run) -> r.wall) ok in
      unit_of ~wall ~cpu ~runs:(List.length runs) ~checks ~buf
        ~layer:
          (gc @ run_metrics ok
          @ [ ("par.busy_s", busy); ("par.idle_s", (float_of_int o.jobs *. wall) -. busy) ]
          @ absent explore_metrics)
    in
    (* The traced pass compiles every run's scenario once, outside the
       campaign, so the campaign itself stays comparable to the untraced
       one. *)
    let traced_extra () =
      compile_ms (List.filter_map (fun spec -> spec.Failmpi.Run.scenario) (specs ()))
    in
    { setup; setup_passes = 101; run_unit; traced_extra }
end

(* ---------- scale-8k ---------- *)

(* One fault-free 10-iteration stencil at 8192 hosts (8100 ranks): the
   last curve point of bench/scale.ml. *)
module Scale = struct
  (* coordinator, dispatcher, scheduler, 3 checkpoint servers *)
  let service_hosts = 6

  let params =
    { Workload.Stencil.iterations = 10; compute_time = 0.5; msg_bytes = 10_000; jitter = 0.0 }

  let isqrt n =
    let rec find i = if i * i > n then i - 1 else find (i + 1) in
    find 1

  let make o =
    let hosts = if o.small then 256 else 8192 in
    let n_compute = hosts - service_hosts in
    let side = isqrt n_compute in
    let n_ranks = side * side in
    let spec () =
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
      {
        (Failmpi.Run.default_spec ~app ~cfg ~n_compute ~state_bytes:100_000) with
        Failmpi.Run.timeout = 600.0;
        trace_level = Simkern.Trace.Summary;
        regions = None;
        seed = Int64.of_int o.seed;
      }
    in
    let expected =
      Workload.Stencil.reference_checksum params ~n_ranks + if o.corrupt then 1 else 0
    in
    let setup () = ignore (Failmpi.Run.prepare ~expected_checksum:expected (spec ())) in
    let run_unit () =
      let c0 = cpu_s () and t0 = now () in
      let run, gc =
        gc_counters (fun () -> run_phased ~expected_checksum:expected ~backend:"vcl" (spec ()))
      in
      let wall = now () -. t0 and cpu = cpu_s () -. c0 in
      let r = run.result in
      let buf = Buffer.create 256 in
      observe buf ~label:(Printf.sprintf "stencil/%d" hosts) run;
      let completed =
        match r.Failmpi.Run.outcome with Failmpi.Run.Completed _ -> true | _ -> false
      in
      if not completed then
        Printf.printf "scale-8k: run did not complete (%s)\n%!" (outcome_text r.Failmpi.Run.outcome);
      unit_of ~wall ~cpu ~runs:1
        ~checks:[ completed && checksum_holds r ]
        ~buf
        ~layer:
          (gc @ run_metrics [ run ]
          @ absent ([ "par.busy_s"; "par.idle_s" ] @ explore_metrics))
    in
    (* A stencil run has no scenario: nothing to compile. *)
    let traced_extra () = compile_ms [] in
    { setup; setup_passes = 7; run_unit; traced_extra }
end

(* ---------- explore-mixed ---------- *)

(* The failmpi_explore default deployment (BT-9 class A, vcl, historical
   dispatcher) with kill, network, service and fat-tree faults, up to 3
   per plan, 500 plans, fork mode, shrinking on. *)
module Explore_mixed = struct
  let n_ranks = 9

  (* Records replayed from scratch per unit to check the report. *)
  let replays = 12

  (* Deployment (simulation) seeds; --seed picks one.  The 500 plans are
     the deterministic single-fault grid plus the first pairs, so the
     deployment seed is the only input a seed can vary.  Each listed seed
     was checked to give a report whose records and witnesses replay from
     scratch, and to find five failing signatures, so every seed does the
     same amount of search and shrinking.  Not every seed replays: on
     123456789 the fork-mode record of kill@0+25;heal@1+25 differs from
     its from-scratch replay, a divergence in the explorer's prefix
     forking that the check rightly reports as a failure. *)
  let deployment_seeds = [| 2; 3; 4; 7; 8 |]

  let deployment_seed seed =
    let n = Array.length deployment_seeds in
    deployment_seeds.(((seed mod n) + n) mod n)

  let kinds =
    let open Explore.Plan in
    [
      Kill;
      Partition;
      Degrade { loss = 50; latency = 2 };
      Heal;
      Service_kill { service = S_ckpt 0 };
      Service_freeze { service = S_ckpt 0; thaw = 20 };
      Service_kill { service = S_sched };
      Service_freeze { service = S_sched; thaw = 20 };
      Switch_kill { tier = Fail_lang.Ast.Tier_edge };
      Switch_kill { tier = Fail_lang.Ast.Tier_agg };
      Pod_degrade { loss = 50; latency = 2 };
    ]

  let make o =
    let (module B : Failmpi.Backend.S) = Option.get (Failmpi.Backend.find "vcl") in
    let n_machines = B.default_machines ~n_ranks ~replicas:2 in
    let spec () =
      let topology =
        match Simtopo.Topo.spec_of_string "fat-tree:4" with
        | Ok t -> Some t
        | Error msg -> failwith msg
      in
      let cfg =
        {
          (Mpivcl.Config.default ~n_ranks) with
          Mpivcl.Config.protocol = B.protocol ~replicas:2;
          dispatcher_buggy = true;
          topology;
        }
      in
      {
        (Experiments.Harness.bt_spec ~cfg ~klass:Workload.Bt_model.A ~n_ranks ~n_machines
           ~scenario:None ())
        with
        Failmpi.Run.seed = Int64.of_int (deployment_seed o.seed);
        timeout = 600.0;
      }
    in
    let config () =
      {
        (Explore.default_config ~n_machines ~targets:(List.init n_ranks Fun.id)
           ~buckets:[ 25; 10; 3 ])
        with
        Explore.max_faults = 3;
        budget = (if o.small then 20 else 500);
        sample_seed = deployment_seed o.seed;
        kinds;
      }
    in
    let expected = Workload.Bt_model.reference_checksum Workload.Bt_model.A ~n_ranks in
    let setup () =
      let spec = spec () in
      ignore (Explore.plans (config ()));
      ignore (Failmpi.Run.prepare spec)
    in
    let last_plans = ref [] in
    let run_unit () =
      let spec = spec () and cfg = config () in
      let c0 = cpu_s () and t0 = now () in
      let (plans, report, stats), gc =
        gc_counters (fun () ->
            let plans = Span.record "explore.plans" (fun () -> Explore.plans cfg) in
            let report, stats =
              Span.record "explore.run_spec" (fun () ->
                  Explore.run_spec ~jobs:o.jobs ~fork:true ~measure:!Span.on cfg ~spec)
            in
            (plans, report, stats))
      in
      let wall = now () -. t0 and cpu = cpu_s () -. c0 in
      last_plans := plans;
      let buf = Buffer.create 65536 in
      Buffer.add_string buf (Explore.to_json report);
      (* Replay an evenly spaced sample of the records and every witness
         from scratch through the standard runner: each must reproduce
         what the report recorded.  These replays are the checked
         operations; the fork-mode campaign itself has no per-plan
         oracle but the report they check. *)
      let replay plan =
        let result, wall =
          timed (fun () ->
              Span.record "explore.runner_of_spec" (fun () -> Explore.runner_of_spec spec plan))
        in
        let run = timed_run ~backend:B.name ~wall result in
        observe buf ~label:(Explore.Plan.key plan) run;
        (run, Explore.signature result)
      in
      (* The explorer's runner passes no expected checksum, so the
         benchmark checks a completed replay's checksums itself. *)
      let replay_checksum_holds (r : Failmpi.Run.result) =
        match r.Failmpi.Run.outcome with
        | Failmpi.Run.Completed _ ->
            List.length r.Failmpi.Run.checksums = n_ranks
            && List.for_all (fun (_, v) -> v = expected) r.Failmpi.Run.checksums
        | _ -> true
      in
      let records = Array.of_list report.Explore.records in
      let n = Array.length records in
      let k = min n replays in
      let sampled =
        List.init k (fun i ->
            let rc = records.(i * n / k) in
            let run, sig_hash = replay rc.Explore.plan in
            let r = run.result in
            let same =
              Explore.verdict_of_outcome r.Failmpi.Run.outcome = rc.Explore.verdict
              && sig_hash = rc.Explore.sig_hash
              && r.Failmpi.Run.injected_faults = rc.Explore.injected
              && replay_checksum_holds r
            in
            if not same then
              Printf.printf "explore-mixed: plan %s does not replay to its record\n%!"
                (Explore.Plan.key rc.Explore.plan);
            (same, run))
      in
      let witnesses =
        List.map
          (fun (m : Explore.minimized) ->
            let run, _ = replay m.Explore.min_plan in
            let same =
              Explore.verdict_of_outcome run.result.Failmpi.Run.outcome = m.Explore.min_verdict
            in
            if not same then
              Printf.printf "explore-mixed: witness %s does not replay to %s\n%!"
                (Explore.Plan.key m.Explore.min_plan)
                (Explore.verdict_name m.Explore.min_verdict);
            (same, run))
          report.Explore.minimized
      in
      let checked = sampled @ witnesses in
      let minimized = report.Explore.minimized in
      let f = float_of_int in
      unit_of ~wall ~cpu ~runs:n ~checks:(List.map fst checked) ~buf
        ~layer:
          (gc
          @ run_metrics (List.map snd checked)
          @ absent [ "par.busy_s"; "par.idle_s" ]
          @ [
              ("explore.plans_ms", 1e3 *. Span.total "explore.plans");
              ("explore.forks", f stats.Explore.Prefix.forks);
              ("explore.pauses", f stats.Explore.Prefix.pauses);
              ("explore.fork_ms", 1e3 *. stats.Explore.Prefix.fork_wall_s);
              ("explore.snapshot_events_max", f stats.Explore.Prefix.snapshot_events_max);
              ( "explore.shrink_probes",
                f (List.fold_left (fun acc m -> acc + m.Explore.probes) 0 minimized) );
              ( "explore.memo_hits",
                f (List.fold_left (fun acc m -> acc + m.Explore.probes_saved) 0 minimized) );
              ("explore.signatures", f (List.length report.Explore.coverage));
            ])
    in
    (* Traced only: compile every explored plan's scenario once. *)
    let traced_extra () = compile_ms (List.map Explore.Plan.to_scenario !last_plans) in
    { setup; setup_passes = 41; run_unit; traced_extra }
end

(* ---------- measuring and reporting ---------- *)

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* Every listed metric must have exactly one value. *)
let complete units values =
  List.map
    (fun (name, _) ->
      match List.filter (fun (k, _) -> k = name) values with
      | [ (_, v) ] -> (name, v)
      | [] -> failwith ("perfbench: no value for metric " ^ name)
      | _ -> failwith ("perfbench: two values for metric " ^ name))
    units

let json_metrics units values =
  complete units values
  |> List.map (fun (name, v) ->
         let unit = List.assoc name units in
         if not (Float.is_finite v) then failwith ("perfbench: metric " ^ name ^ " is not finite");
         Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
  |> String.concat ", "

let print_layer_table values =
  let self = Span.self_by_layer () in
  Printf.printf "%-12s %12s %7s\n" "layer" "self_s" "spans";
  List.iter
    (fun l ->
      match Hashtbl.find_opt self l with
      | Some (s, n) -> Printf.printf "%-12s %12.6f %7d\n" l s n
      | None -> Printf.printf "%-12s %12.6f %7d  (no call on this workload)\n" l 0.0 0)
    span_layers;
  List.iter
    (fun l ->
      let counters =
        List.filter_map
          (fun (name, v) ->
            if String.starts_with ~prefix:(l ^ ".") name then Some (Printf.sprintf "%s=%.17g" name v)
            else None)
          values
      in
      Printf.printf "%-12s %12s %7s  (inside core/explore spans; %s)\n" l "-" "-"
        (if counters = [] then "no counter reachable from outside the program"
         else "counters: " ^ String.concat ", " counters))
    counter_layers;
  List.map
    (fun l -> ("self." ^ l ^ "_s", match Hashtbl.find_opt self l with Some (s, _) -> s | None -> 0.0))
    span_layers

(* Every set-up pass starts from a collected heap, untimed, so no pass
   pays the major-GC debt its predecessor left behind.  Units do not:
   collecting between them makes the two-domain campaign's top heap
   swing by a quarter from run to run. *)
let collected f =
  Gc.full_major ();
  f ()

let measure o w =
  let units, values =
    if not o.trace then begin
      (* Peak heap is read after the first unit: that is the memory one
         run of the workload needs.  Later units start from whatever heap
         the earlier ones left behind, which makes the process's top heap
         swing by a third from seed to seed. *)
      let first = w.run_unit () in
      let peak_heap = peak_heap_mb () in
      let units = first :: List.init (o.units - 1) (fun _ -> w.run_unit ()) in
      Printf.printf "unit walls (s): %s\n"
        (String.concat " " (List.map (fun u -> Printf.sprintf "%.3f" u.wall) units));
      (* After the units: the process is warm, as a user's repeated
         set-up would be. *)
      let setup_times =
        List.init (if o.small then 2 else w.setup_passes) (fun _ ->
            collected (fun () -> snd (timed w.setup)))
      in
      Printf.printf "setup passes (s): min %.6f median %.6f max %.6f\n"
        (List.fold_left Float.min infinity setup_times)
        (median setup_times)
        (List.fold_left Float.max neg_infinity setup_times);
      let med f = median (List.map f units) in
      ( units,
        [
          ("setup_s", median setup_times);
          ("wall_s", med (fun u -> u.wall));
          ("cpu_s", med (fun u -> u.cpu));
          ("peak_heap_mb", peak_heap);
          ("runs_per_s", med (fun u -> float_of_int u.runs /. u.wall));
          ("runs_per_cpu_h", med (fun u -> float_of_int u.runs /. (u.cpu /. 3600.0)));
        ] )
    end
    else begin
      let plain = w.run_unit () in
      Span.on := true;
      let traced = w.run_unit () in
      let values = traced.layer @ w.traced_extra () in
      let self = print_layer_table values in
      let overhead = 100.0 *. (traced.wall -. plain.wall) /. plain.wall in
      Printf.printf "tracing overhead: %.2f%% (untraced unit %.3f s, traced %.3f s)\n" overhead
        plain.wall traced.wall;
      ([ plain; traced ], values @ self @ [ ("trace.overhead_pct", overhead) ])
    end
  in
  let digests = List.sort_uniq compare (List.map (fun u -> u.digest) units) in
  let attempted = List.fold_left (fun acc u -> acc + u.attempted) 0 units in
  let failed =
    List.fold_left (fun acc u -> acc + u.failed) 0 units
    + if List.length digests > 1 then 1 else 0
  in
  if List.length digests > 1 then
    Printf.printf "%s: units disagree on the observables digest\n" o.workload;
  (attempted, failed, List.hd digests, units, values)

let usage () =
  prerr_endline
    "usage: perfbench.exe (families-bt49|scale-8k|explore-mixed) --seed N --units U \
     --trace 0|1 --jobs J [--small] [--corrupt-checksum] [--spans FILE]";
  exit 2

let parse_args () =
  let o =
    ref
      {
        workload = "";
        seed = 0;
        units = 2;
        trace = false;
        jobs = 2;
        small = false;
        corrupt = false;
        spans_file = None;
      }
  in
  let int_arg s = match int_of_string_opt s with Some v -> v | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--seed" :: v :: rest -> o := { !o with seed = int_arg v }; go rest
    | "--units" :: v :: rest -> o := { !o with units = max 1 (int_arg v) }; go rest
    | "--trace" :: v :: rest -> o := { !o with trace = int_arg v <> 0 }; go rest
    | "--jobs" :: v :: rest -> o := { !o with jobs = max 1 (int_arg v) }; go rest
    | "--spans" :: v :: rest -> o := { !o with spans_file = Some v }; go rest
    | "--small" :: rest -> o := { !o with small = true }; go rest
    | "--corrupt-checksum" :: rest -> o := { !o with corrupt = true }; go rest
    | w :: rest when !o.workload = "" && not (String.starts_with ~prefix:"-" w) ->
        o := { !o with workload = w }; go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  !o

let () =
  let o = parse_args () in
  let make =
    match o.workload with
    | "families-bt49" -> Families.make
    | "scale-8k" -> Scale.make
    | "explore-mixed" -> Explore_mixed.make
    | _ -> usage ()
  in
  Printf.printf "perfbench: %s seed %d, %s, %d units, jobs %d%s\n%!" o.workload o.seed
    (if o.trace then "traced" else "untraced")
    (if o.trace then 2 else o.units)
    o.jobs
    (if o.small then ", small" else "");
  let attempted, failed, digest, units, values = measure o (make o) in
  Option.iter Span.write o.spans_file;
  let correct = failed = 0 in
  Printf.printf "observables digest: %s (%d units)\n" digest (List.length units);
  Printf.printf "error_rate: %.6f (%d failed of %d attempted)\n"
    (float_of_int failed /. float_of_int (max 1 attempted))
    failed attempted;
  (* Timings are reported only when every check passed. *)
  let metrics =
    if not correct then ""
    else json_metrics (if o.trace then per_layer_units else end_to_end_units) values
  in
  Printf.printf "RESULT {\"digest\": %S, \"ocaml\": %S, \"units\": %d, \"correct\": %b, \
                 \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    digest Sys.ocaml_version (List.length units) correct attempted failed metrics
