module Lang = struct
  module Ast = Fail_lang.Ast
  module Parser = Fail_lang.Parser
  module Pp = Fail_lang.Pp
  module Sema = Fail_lang.Sema
  module Automaton = Fail_lang.Automaton
  module Compile = Fail_lang.Compile
  module Codegen = Fail_lang.Codegen
  module Paper_scenarios = Fail_lang.Paper_scenarios
  module Tool_comparison = Fail_lang.Tool_comparison
end

module Inject = struct
  module Control = Fci.Control
  module Runtime = Fci.Runtime
end

module Mpi = struct
  module Config = Mpivcl.Config
  module App = Mpivcl.App
end

module Backend = Backend

module Run = struct
  open Simkern

  type spec = {
    scenario : string option;
    params : (string * int) list;
    app : Mpivcl.App.t;
    state_bytes : int;
    n_compute : int;
    cfg : Mpivcl.Config.t;
    fci_config : Fci.Runtime.config;
    seed : int64;
    timeout : float;
    trace_level : Trace.level;
    regions : int option;
        (* Validated, otherwise ignored: the engine has one event heap.
           Kept only for callers that still set it; goes with the next
           benchmark change. *)
  }

  let default_spec ~app ~cfg ~n_compute ~state_bytes =
    {
      scenario = None;
      params = [];
      app;
      state_bytes;
      n_compute;
      cfg;
      fci_config = Fci.Runtime.default_config;
      seed = 1L;
      timeout = 1500.0;
      trace_level = Trace.Full;
      regions = None;
    }

  type outcome =
    | Completed of float
    | Degraded of { at : float; survivors : int }
    | Aborted of string
    | Ckpt_lost
    | Non_terminating
    | Buggy
    | Net_hung

  type result = {
    outcome : outcome;
    injected_faults : int;
    metrics : Backend.Metrics.t;
    checksums : (int * int) list;
    checksum_ok : bool option;
    trace : Trace.t;
  }

  let metrics r = r.metrics
  let recoveries r = r.metrics.Backend.Metrics.recoveries
  let committed_waves r = r.metrics.Backend.Metrics.committed_waves
  let confused r = r.metrics.Backend.Metrics.confused
  let failovers r = r.metrics.Backend.Metrics.failovers
  let respawns r = r.metrics.Backend.Metrics.respawns

  let outcome_name = function
    | Completed _ -> "completed"
    | Degraded _ -> "degraded"
    | Aborted _ -> "aborted"
    | Ckpt_lost -> "ckpt-lost"
    | Non_terminating -> "non-terminating"
    | Buggy -> "buggy"
    | Net_hung -> "net-hung"

  let trace_events r = Trace.events r.trace

  (* A prepared-but-not-yet-run experiment. [prepare] performs the whole
     launch (engine, scenario compilation, backend deployment, watchdog);
     [resume_from] runs the engine to its terminal stop and classifies —
     so [execute] is exactly [prepare |> resume_from], and the explorer
     can interpose [advance ~stop_before] pauses and [step]s between the
     two without perturbing anything the classifier sees. *)
  type checkpoint = {
    cp_spec : spec;
    cp_eng : Simkern.Engine.t;
    cp_fci : Fci.Runtime.t option;
    cp_classify : [ `Quiescent | `Halted | `Deadline | `Breakpoint ] -> result;
    mutable cp_stopped : [ `Quiescent | `Halted | `Deadline | `Breakpoint ] option;
    mutable cp_result : result option;
  }

  let prepare ?expected_checksum spec =
    let n_ranks = spec.cfg.Mpivcl.Config.n_ranks in
    if n_ranks <= 0 then
      invalid_arg
        (Printf.sprintf "Run.execute: cfg.n_ranks must be positive (got %d)" n_ranks);
    if spec.n_compute < n_ranks then
      invalid_arg
        (Printf.sprintf
           "Run.execute: n_compute (%d) cannot seat %d ranks — need at least one \
            compute host per rank"
           spec.n_compute n_ranks);
    (match spec.regions with
    | Some r when r < 1 ->
        invalid_arg (Printf.sprintf "Run.execute: regions must be >= 1 (got %d)" r)
    | Some _ | None -> ());
    let eng = Engine.create ~seed:spec.seed ~trace_level:spec.trace_level () in
    let fci =
      match spec.scenario with
      | None -> None
      | Some source -> (
          match Fail_lang.Compile.compile_source ~params:spec.params source with
          | Ok plan -> Some (Fci.Runtime.create eng ~config:spec.fci_config plan)
          | Error msg -> invalid_arg (Printf.sprintf "Run.execute: scenario error: %s" msg))
    in
    (* Capture each rank's final checksum after its last re-execution. *)
    let finals : (int, int) Hashtbl.t = Hashtbl.create 64 in
    let app =
      {
        spec.app with
        Mpivcl.App.main =
          (fun ctx ->
            spec.app.Mpivcl.App.main ctx;
            Hashtbl.replace finals ctx.Mpivcl.App.rank ctx.Mpivcl.App.state.(2));
      }
    in
    (* One protocol-agnostic path: the backend registered for
       [cfg.protocol] deploys the runtime; a single watchdog stops the
       clock as soon as the application completes; otherwise the engine
       runs to quiescence (a freeze drains the event queue) or to the
       experiment timeout, after which every component is killed and the
       run is classified exactly as the paper's §5 does — a frozen run
       (quiescent event queue, corrupted dispatcher, or exhausted
       replication) is a bug; a run still making failure / recovery
       noise at the timeout is non-terminating. *)
    let (module B : Backend.S) = Backend.of_config spec.cfg in
    let handle =
      B.launch eng ?fci ~cfg:spec.cfg ~app ~state_bytes:spec.state_bytes
        ~n_compute:spec.n_compute ()
    in
    ignore
      (Proc.spawn eng ~name:"experiment-watchdog" (fun () ->
           B.await handle;
           Engine.halt eng));
    let classify stop_reason =
      let completed = B.peek_completed handle in
    let frozen = B.frozen handle in
    let metrics = B.metrics handle in
    let survivors = B.survivors handle in
    let aborted = B.aborted handle in
    let ckpt_lost = B.ckpt_lost handle in
    B.teardown handle;
    (match fci with Some rt -> Fci.Runtime.shutdown rt | None -> ());
    Engine.halt eng;
    (* Distinguish a wedge the network explains from a protocol bug: a run
       that neither completed nor kept making progress, while the fabric
       was actively losing messages or tearing connections down, is
       [Net_hung] — a latency-only degradation cannot mask a genuine
       [Buggy] verdict because it drops nothing. *)
    let net_interference =
      let count name =
        match List.assoc_opt name metrics.Backend.Metrics.extra with
        | Some n -> n
        | None -> 0
      in
      count "net_dropped" + count "net_conn_timeouts" > 0
    in
    (* A run that finished on a shrunken communicator is never [Ok]-plain:
       the answer may be right, but the machine is smaller — report
       [Degraded n] so harnesses keep answer quality and capacity loss
       apart. A backend-reported clean abort (e.g. survivor agreement
       refusing to decide without a quorum) beats the frozen/quiescent
       heuristics: giving up loudly is a protocol outcome, not a wedge. *)
    let outcome =
      match completed with
      | Some t -> (
          match survivors with
          | Some n -> Degraded { at = t; survivors = n }
          | None -> Completed t)
      | None ->
          (* A lost checkpoint beats every other classification: the
             dispatcher also records it as a clean abort, but the verdict
             must stay distinguishable — it indicts the storage plane's
             replication degree, not the recovery protocol. *)
          if ckpt_lost then Ckpt_lost
          else (
            match aborted with
            | Some reason -> Aborted reason
            | None ->
                if frozen || stop_reason = `Quiescent then
                  if net_interference then Net_hung else Buggy
                else Non_terminating)
    in
    let checksums =
      Hashtbl.fold (fun rank v acc -> (rank, v) :: acc) finals []
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    in
    let checksum_ok =
      match (completed, expected_checksum) with
      | Some _, Some expected ->
          Some
            (List.length checksums = spec.cfg.Mpivcl.Config.n_ranks
            && List.for_all (fun (_, v) -> v = expected) checksums)
      | _ -> None
    in
    {
      outcome;
      injected_faults =
        (match fci with Some rt -> Fci.Runtime.injected_faults rt | None -> 0);
      metrics;
      checksums;
      checksum_ok;
      trace = Engine.trace eng;
    }
    in
    {
      cp_spec = spec;
      cp_eng = eng;
      cp_fci = fci;
      cp_classify = classify;
      cp_stopped = None;
      cp_result = None;
    }

  let checkpoint_engine cp = cp.cp_eng
  let checkpoint_fci cp = cp.cp_fci

  let advance cp ~stop_before =
    match cp.cp_stopped with
    | Some _ -> `Finished
    | None -> (
        match Engine.run ~until:cp.cp_spec.timeout ~stop_before cp.cp_eng with
        | `Breakpoint -> `Paused
        | (`Quiescent | `Halted | `Deadline) as r ->
            cp.cp_stopped <- Some r;
            `Finished)

  let step cp = ignore (Engine.run_one cp.cp_eng)

  let resume_from cp =
    match cp.cp_result with
    | Some r -> r
    | None ->
        let stop =
          match cp.cp_stopped with
          | Some r -> r
          | None ->
              let r = Engine.run ~until:cp.cp_spec.timeout cp.cp_eng in
              cp.cp_stopped <- Some r;
              r
        in
        let r = cp.cp_classify stop in
        cp.cp_result <- Some r;
        r

  let execute ?expected_checksum spec = resume_from (prepare ?expected_checksum spec)
end
