(** The dispatcher's recovery bookkeeping as a pure state machine: which
    rank runs which incarnation on which host, when the application
    starts, and when a failure starts a recovery. {!Dispatcher} feeds it
    what its sockets and its ssh launches report and performs the
    actions it returns, in order. [step] reads no clock, RNG or network.

    Failure detection follows §3: "a failure is assumed after any
    unexpected socket closure". With [restarts_all] (coordinated
    checkpointing), the closure of a computing daemon in steady state
    starts a recovery: every other registered daemon is sent
    [Terminate], the failed rank moves to a spare host and is relaunched
    at once, and each other rank is relaunched in place as soon as its
    old daemon's closure arrives. [Start] goes out when every rank's
    current incarnation is ready. Without [restarts_all] (sender
    logging), only the failed rank is relaunched, and it alone gets
    [Start] once ready.

    A new-wave failure, that is the closure of a daemon that registered
    after the last [Start], is relaunched at once on a spare host, and
    so is a daemon that dies before its hello. Two flags change that:
    - [buggy], the historical dispatcher of §5.3: a new-wave closure seen
      while an old-wave daemon is still stopping is counted as that
      daemon's termination, so the rank is never relaunched and the run
      freezes ({!confused});
    - [seeded_race], a §6-style defect for the explorer's demo: a
      new-wave closure before the wave reaches [Start] forgets the rank
      ({!race_lost}). It needs two well-placed faults.

    Trace events it asks for: [recovery-start], [failure-detected],
    [old-wave-stopped], [new-wave-failure], [closure-ignored],
    [reallocate], [no-spare], [app-started], [recovery-complete],
    [rank-resumed], [app-completed], [ckpt-lost], [dispatcher-confused],
    [dispatcher-race], [spawn-failed], [anomaly], [protocol-error]. *)

type t

val create :
  n:int -> initial_hosts:int array -> spare_limit:int -> restarts_all:bool -> buggy:bool ->
  seeded_race:bool -> t
(** Rank [r] first runs on [initial_hosts.(r)]; the other hosts below
    [spare_limit] are spares. *)

(** Each input names a rank and one of its incarnations; one that is
    not the rank's current incarnation is ignored, and so is every input
    once the run has finished. *)
type input =
  | Boot  (** launch every rank *)
  | Hello of int * int  (** a daemon's hello on a new connection *)
  | Ready of int * int
  | Rank_done of int * int
  | Ckpt_lost of int * int  (** no checkpoint image survives for the rank *)
  | Unexpected of int * int * Message.t  (** traced as [protocol-error] *)
  | Closed of int * int  (** a registered daemon's connection closed *)
  | Spawn_died of int * int  (** a launched daemon exited *)

type action =
  | Send of int * Message.t  (** on the rank's registered connection, if any *)
  | Accept of int * int  (** keep the [Hello]'s connection; trace [rank-registered] *)
  | Refuse  (** close the [Hello]'s connection *)
  | Launch of { rank : int; host : int; inc : int }  (** trace [launch], then ssh *)
  | Trace of { level : Simkern.Trace.level; event : string; detail : string }
  | Completed
  | Aborted of string

val step : t -> input -> t * action list

(** Number of recovery waves (or, without [restarts_all], of single-rank
    restarts) started so far. *)
val recoveries : t -> int

(** The historical dispatcher, or the seeded race, forgot a rank: the
    run will freeze. *)
val confused : t -> bool
val race_lost : t -> bool

(** A restarting rank reported that no complete checkpoint image
    survives; the run ended [Aborted] instead of relaunching forever. *)
val ckpt_lost : t -> bool
