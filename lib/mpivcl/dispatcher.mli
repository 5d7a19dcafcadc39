(** Dispatcher: starts the MPI application, detects failures, drives
    recovery waves.

    Failure detection follows §3: "a failure is assumed after any
    unexpected socket closure". Recovery terminates every daemon of the
    current execution wave, then relaunches each rank {e eagerly} as soon
    as its old daemon is confirmed dead — failed ranks move to a spare
    host, others restart in place and reuse their local checkpoint.

    Two variants, selected by [Config.dispatcher_buggy]:
    - the {b historical} dispatcher the paper evaluated: if it detects the
      failure of a daemon that already registered in the {e new} wave
      while the recovery is still incomplete, it misaccounts the closure
      as an old-wave termination and forgets to relaunch that rank — the
      application freezes (the bug located in §5.3);
    - the {b corrected} dispatcher: such failures re-enter the relaunch
      path once the previous wave is fully stopped.

    Orthogonally, [Config.vcl_seeded_race] plants a §6-style defect used
    by [lib/explore]'s acceptance demo: once a recovery wave is under
    way, losing a rank that already rejoined the new wave {e before} the
    wave reaches steady state forgets that rank and wedges the run. It
    needs two well-placed faults to trigger and is off by default. *)



type t

type outcome = Dispatch.outcome = Completed of float | Aborted of string

(** [spawn env ~host ~initial_hosts] starts the dispatcher on [host];
    rank [r] is first launched on [initial_hosts.(r)]; remaining cluster
    hosts whose id is below [spare_limit] serve as spares. *)
val spawn : Env.t -> host:int -> initial_hosts:int array -> spare_limit:int -> t

(** [outcome t] resolves when the application completes. Blocks the
    calling process. *)
val outcome : t -> outcome

(** [peek_outcome t] is [None] while the application is still running. *)
val peek_outcome : t -> outcome option

(** Number of recovery waves started so far. *)
val recoveries : t -> int

(** [confused t] is true once the buggy dispatcher has corrupted its
    bookkeeping (the run will freeze). *)
val confused : t -> bool

(** [race_lost t] is true once the seeded [Config.vcl_seeded_race]
    defect has dropped a rank mid-recovery (the run will freeze). *)
val race_lost : t -> bool

(** [ckpt_lost t] is true once a restarting rank reported that no
    checkpoint storage replica was reachable: recovery was needed and no
    complete image survives. The dispatcher ends the run immediately
    (the [Ckpt_lost] verdict) instead of relaunching forever. *)
val ckpt_lost : t -> bool
