module Backend = Backend

module Gc_policy = struct
  let floor_words = 262_144
  let words_per_host = 512
  let cap_words = 8_388_608

  let minor_heap_words ~n_compute =
    Int.min cap_words (Int.max floor_words (words_per_host * n_compute))

  (* The runtime reads OCAMLRUNPARAM, or CAMLRUNPARAM when OCAMLRUNPARAM
     is unset, and takes every comma-separated entry that starts with
     's' as the minor heap size. *)
  let override () =
    let param =
      match Sys.getenv_opt "OCAMLRUNPARAM" with
      | Some _ as p -> p
      | None -> Sys.getenv_opt "CAMLRUNPARAM"
    in
    match param with
    | None -> None
    | Some p ->
        List.rev (String.split_on_char ',' p)
        |> List.find_opt (fun e -> String.length e > 0 && e.[0] = 's')

  let apply ~n_compute =
    if override () = None then begin
      let words = minor_heap_words ~n_compute in
      let g = Gc.get () in
      if g.Gc.minor_heap_size <> words then Gc.set { g with Gc.minor_heap_size = words }
    end
end

module Run = struct
  open Simkern

  type spec = {
    scenario : string option;
    params : (string * int) list;
    app : Mpivcl.App.t;
    state_bytes : int;
    n_compute : int;
    cfg : Mpivcl.Config.t;
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
    (* The storage plane keeps a primary copy and at most one mirror. *)
    let ckpt_replicas = spec.cfg.Mpivcl.Config.ckpt_replicas in
    if ckpt_replicas < 1 || ckpt_replicas > 2 then
      invalid_arg
        (Printf.sprintf "Run.execute: cfg.ckpt_replicas must be 1 or 2 (got %d)" ckpt_replicas);
    (match spec.regions with
    | Some r when r < 1 ->
        invalid_arg (Printf.sprintf "Run.execute: regions must be >= 1 (got %d)" r)
    | Some _ | None -> ());
    Gc_policy.apply ~n_compute:spec.n_compute;
    let eng = Engine.create ~seed:spec.seed ~trace_level:spec.trace_level () in
    let fci =
      match spec.scenario with
      | None -> None
      | Some source -> (
          match Fail_lang.Compile.compile_source ~params:spec.params source with
          | Ok plan -> Some (Fci.Runtime.create eng plan)
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
    (* One protocol-agnostic path: the backend for [cfg.protocol]
       deploys the runtime; a single watchdog stops the clock as soon as
       the application completes; otherwise the engine runs to quiescence
       (a freeze drains the event queue) or to the experiment timeout,
       after which every component is killed and the run is classified
       as the paper's §5 does. *)
    let (module B : Backend.S) = Backend.of_protocol spec.cfg.Mpivcl.Config.protocol in
    let handle =
      B.launch eng ?fci ~cfg:spec.cfg ~app ~state_bytes:spec.state_bytes
        ~n_compute:spec.n_compute ()
    in
    ignore
      (Proc.spawn eng ~name:"experiment-watchdog" (fun () ->
           B.await handle;
           Engine.halt eng));
    let classify stop_reason =
      let status = B.status handle in
      let metrics = B.metrics handle in
      B.teardown handle;
      (match fci with Some rt -> Fci.Runtime.shutdown rt | None -> ());
      Engine.halt eng;
      (* A frozen run (or one whose event queue drained without an
         answer) is a bug — unless the fabric was actively losing
         messages or tearing connections down, which explains the wedge
         ([Net_hung]); a latency-only degradation drops nothing, so it
         cannot mask a genuine [Buggy]. A run still making failure /
         recovery noise at the timeout is non-terminating. *)
      let wedged () =
        match metrics.Backend.Metrics.net with
        | Some s when s.Simnet.Net.Perturb.dropped + s.conn_timeouts > 0 -> Net_hung
        | Some _ | None -> Buggy
      in
      let outcome =
        match status with
        | Backend.Completed t -> Completed t
        | Backend.Degraded { at; survivors } -> Degraded { at; survivors }
        | Backend.Aborted reason -> Aborted reason
        | Backend.Ckpt_lost -> Ckpt_lost
        | Backend.Frozen -> wedged ()
        | Backend.Running when stop_reason = `Quiescent -> wedged ()
        | Backend.Running -> Non_terminating
      in
      let checksums =
        Hashtbl.fold (fun rank v acc -> (rank, v) :: acc) finals []
        |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
      in
      let checksum_ok =
        match (status, expected_checksum) with
        | (Backend.Completed _ | Backend.Degraded _), Some expected ->
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
