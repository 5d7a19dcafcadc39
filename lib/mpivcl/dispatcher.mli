(** Dispatcher: starts the MPI application, detects failures, drives
    recovery waves. It is the adapter of {!Recovery}, which makes every
    decision from [Config.dispatcher_buggy], [Config.vcl_seeded_race]
    and what the daemons' connections and launches report. *)

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

(** Read from {!Recovery}: the recovery waves started so far, and
    whether the historical race ({!Recovery.confused}) or the seeded one
    ({!Recovery.race_lost}) froze the run, or a lost checkpoint ended it
    ({!Recovery.ckpt_lost}, the [Ckpt_lost] verdict). *)
val recoveries : t -> int
val confused : t -> bool
val race_lost : t -> bool
val ckpt_lost : t -> bool
