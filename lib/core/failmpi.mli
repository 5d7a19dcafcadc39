(** FAIL-MPI: language-driven fault injection for fault-tolerant MPI.

    The one-stop public API. A fault-injection campaign is described by a
    {!Run.spec}: a FAIL scenario (source text), the application under
    test, and the protocol configuration. {!Run.execute} compiles the
    scenario, resolves the protocol backend for [cfg.protocol] from the
    {!Backend.Registry}, deploys the FAIL-MPI daemons and the protocol
    runtime on a simulated cluster, runs to completion or to the
    experiment timeout, and classifies the outcome exactly as the paper's
    §5 does: completed, non-terminating (failure frequency too high for
    progress), or buggy (frozen by a fault-tolerance bug) — refined to
    net-hung when the wedge is explained by an actively lossy or
    partitioned network fabric.

    Re-exports: {!Lang} (the FAIL language front end), {!Inject} (the FCI
    runtime), {!Mpi} (configuration and application types), {!Backend}
    (the protocol-backend registry — see [docs/ARCHITECTURE.md]). *)

module Lang : sig
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

module Inject : sig
  module Control = Fci.Control
  module Runtime = Fci.Runtime
end

module Mpi : sig
  module Config = Mpivcl.Config
  module App = Mpivcl.App
end

module Backend = Backend

module Run : sig
  type spec = {
    scenario : string option;  (** FAIL source; [None] = no fault injection *)
    params : (string * int) list;  (** scenario parameters (the paper's X, N) *)
    app : Mpivcl.App.t;
    state_bytes : int;  (** per-rank checkpoint image size *)
    n_compute : int;  (** compute hosts incl. spares (paper: 53 for BT-49) *)
    cfg : Mpivcl.Config.t;
    fci_config : Fci.Runtime.config;
    seed : int64;
    timeout : float;  (** experiment timeout (paper: 1500 s) *)
    trace_level : Simkern.Trace.level;
        (** what the run's trace records: [Full] keeps every event
            (qualitative bug hunts), [Summary] drops per-message
            protocol chatter and keeps milestone events only — the
            allocation-light setting quantitative campaigns use. Never
            affects the simulation itself, only what is recorded. *)
    regions : int option;
        (** validated ([Some r] with [r < 1] is rejected) and otherwise
            ignored: the engine keeps a single event heap. The field
            stays only for existing callers and goes with the next
            benchmark change. *)
  }

  (** [default_spec ~app ~cfg ~n_compute ~state_bytes] fills paper
      defaults (1500 s timeout, no scenario, seed 1, [Full] trace,
      [regions = None]). *)
  val default_spec :
    app:Mpivcl.App.t ->
    cfg:Mpivcl.Config.t ->
    n_compute:int ->
    state_bytes:int ->
    spec

  type outcome =
    | Completed of float  (** wall-clock (simulated) execution time *)
    | Degraded of { at : float; survivors : int }
        (** completed, but on a communicator shrunk to [survivors]
            daemons (ulfm backend): never folded into [Completed] so
            answer quality and capacity loss stay distinguishable;
            [checksum_ok] still says whether the degraded answer is
            right *)
    | Aborted of string
        (** the backend gave up cleanly and said why — e.g. the survivor
            agreement refused to decide without a majority of the
            superseded epoch (split-brain protection under partition) *)
    | Ckpt_lost
        (** a restarting rank needed a checkpoint image and no storage
            replica could produce a complete one (every assigned server
            dead or holding only a torn write): recovery is impossible,
            so the dispatcher ends the run decisively instead of
            relaunching forever. Indicts the storage plane's replication
            degree, not the recovery protocol — kept apart from
            [Aborted] so campaigns can count it separately. *)
    | Non_terminating
        (** still rolling back / recovering at the timeout: the failure
            frequency leaves no room for progress (green bars) *)
    | Buggy  (** frozen by a fault-tolerance bug (red bars) *)
    | Net_hung
        (** frozen, but the perturbed network was dropping messages or
            tearing connections down — the wedge is explained by the
            fabric, not (necessarily) a protocol bug. Only reachable when
            network faults are active; latency-only degradation never
            produces it. *)

  type result = {
    outcome : outcome;
    injected_faults : int;  (** FAIL [halt] actions executed *)
    metrics : Backend.Metrics.t;
        (** the uniform counter set the protocol backend reported *)
    checksums : (int * int) list;  (** (rank, final checksum) of completed runs *)
    checksum_ok : bool option;
        (** completed runs: all checksums equal the fault-free reference
            passed via [expected_checksum]; [None] when unavailable *)
    trace : Simkern.Trace.t;
  }

  val metrics : result -> Backend.Metrics.t

  (** Shorthands into {!result.metrics}. *)

  val recoveries : result -> int
  (** dispatcher recovery waves (rollback families) *)

  val committed_waves : result -> int
  (** global checkpoints committed *)

  val confused : result -> bool
  (** the dispatcher hit the §5.3 bookkeeping race *)

  val failovers : result -> int
  (** replica failures absorbed with zero rollback *)

  val respawns : result -> int
  (** replicas respawned via state transfer *)

  val outcome_name : outcome -> string

  (** [trace_events r] is the [(source, event)] pair of every trace
      entry, in recording order, without rendering detail payloads — at
      [Summary] trace level this is the run's milestone skeleton, which
      [Explore] hashes into a coverage signature. *)
  val trace_events : result -> (string * string) list

  (** [execute ?expected_checksum spec] runs one experiment.

      @raise Invalid_argument on absurd inputs: [cfg.n_ranks <= 0],
        [n_compute < cfg.n_ranks], or [regions = Some r] with [r < 1]. *)
  val execute : ?expected_checksum:int -> spec -> result

  (** {2 Checkpointed execution}

      {!execute} split in two: {!prepare} performs the whole launch
      (engine, scenario compilation, backend deployment, watchdog) but
      runs no events; {!resume_from} runs the engine to its terminal
      stop and classifies exactly as {!execute} does — [execute spec]
      {e is} [resume_from (prepare spec)]. Between the two, the
      explorer's prefix-sharing scheduler interposes {!advance} pauses
      at scenario-timer breakpoints, {!step}s over single events, and
      OS-level [fork()]s of the whole process — the checkpoint value
      itself carries no copied state, the fork's copy-on-write heap
      does (see docs/EXPLORER.md). *)

  type checkpoint

  (** [prepare ?expected_checksum spec] validates and launches without
      running any event. Raises like {!execute}. *)
  val prepare : ?expected_checksum:int -> spec -> checkpoint

  val checkpoint_engine : checkpoint -> Simkern.Engine.t

  (** [checkpoint_fci cp] is the run's FAIL runtime, when the spec had a
      scenario. *)
  val checkpoint_fci : checkpoint -> Fci.Runtime.t option

  (** [advance cp ~stop_before] runs events up to the run's timeout but
      pauses ([`Paused]) just before [stop_before] would execute,
      leaving it queued. [`Finished] means the run reached a terminal
      stop (completion, quiescence or timeout) before the breakpoint —
      {!resume_from} will then classify without running further. *)
  val advance :
    checkpoint -> stop_before:Simkern.Engine.handle -> [ `Paused | `Finished ]

  (** [step cp] executes exactly the next pending event (the explorer's
      "fire the fault" move at a pause). *)
  val step : checkpoint -> unit

  (** [resume_from cp] runs to the terminal stop (if not already there)
      and classifies. Idempotent: the result is memoised, and the
      backend teardown it triggers happens once. *)
  val resume_from : checkpoint -> result
end
