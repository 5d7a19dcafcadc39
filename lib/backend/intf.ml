(** The protocol-backend contract.

    A backend packages one fault-tolerance protocol family behind the
    launch / await / status / metrics lifecycle that
    {!Failmpi.Run.execute} drives: deploy the runtime on a simulated
    cluster, block a watchdog until the application finishes, report the
    terminal state and the uniform {!Metrics.t}, and tear everything
    down. Implementations are first-class modules listed in
    {!Builtin.all}; the core run loop is protocol-agnostic and resolves
    the backend from [Mpivcl.Config.protocol]. *)

(** Where a run stands, as the backend sees it. Each backend decides the
    precedence between its own signals (a completed run is never
    [Frozen], a lost checkpoint beats a frozen dispatcher, ...); the §5
    classifier maps the result onto a verdict in one [match]. *)
type status =
  | Running  (** no terminal signal yet: still computing or recovering *)
  | Completed of float  (** the application finished at this simulated time *)
  | Degraded of { at : float; survivors : int }
      (** finished at [at] on a communicator rebuilt over [survivors]
          daemons (shrink-and-continue backends) *)
  | Aborted of string
      (** the backend gave up cleanly and said why, e.g. a survivor
          agreement that refuses to decide without a quorum *)
  | Ckpt_lost
      (** a restarting rank needed a checkpoint image and no storage
          replica could produce a complete one (rollback families) *)
  | Frozen
      (** the protocol wedged the run (corrupted dispatcher bookkeeping,
          exhausted replication, split-brain): §5 classifies this as
          [Buggy] even before the event queue drains *)

module type S = sig
  (** Opaque per-run deployment state (cluster, network, dispatcher). *)
  type handle

  (** Canonical name (CLI: [--protocol <name>]). *)
  val name : string

  (** Alternative CLI spellings, e.g. ["non-blocking"] for [vcl]. *)
  val aliases : string list

  (** One-line description for [--list-protocols]. *)
  val doc : string

  (** Row label used by the protocol-families experiment;
      [replicas] only matters to degree-parameterised backends. *)
  val family_label : replicas:int -> string

  (** The [Config.protocol] value this backend runs, e.g.
      [Replication { degree = replicas }]. *)
  val protocol : replicas:int -> Mpivcl.Config.protocol

  (** Default compute-host allocation (ranks + protocol services +
      spares) for CLI runs, mirroring the paper's 53-for-49 style. *)
  val default_machines : n_ranks:int -> replicas:int -> int

  (** Service hosts the deployment places after the FAIL coordinator
      host; with [n_compute] they size {!Simos.Layout.make}. *)
  val service_hosts : Mpivcl.Config.t -> int

  (** Deploy the protocol runtime. Returns immediately; progress happens
      as the engine runs. Raises [Invalid_argument] if [cfg.protocol] is
      not one this backend runs or the cluster is too small. *)
  val launch :
    Simkern.Engine.t ->
    ?fci:Fci.Runtime.t ->
    cfg:Mpivcl.Config.t ->
    app:Mpivcl.App.t ->
    state_bytes:int ->
    n_compute:int ->
    unit ->
    handle

  (** Blocks the calling process until the run reaches a terminal state
      (completed or aborted). Spawned as the experiment watchdog. *)
  val await : handle -> unit

  (** The run's current {!status}; read once, before {!teardown}. *)
  val status : handle -> status

  (** Uniform counter snapshot; see {!Metrics}. *)
  val metrics : handle -> Metrics.t

  (** Kill every deployed task (experiment timeout). *)
  val teardown : handle -> unit
end

(** Backends travel as first-class modules. *)
type t = (module S)
