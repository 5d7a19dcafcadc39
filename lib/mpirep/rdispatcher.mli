(** Membership / failover layer of the replication backend — the
    dispatcher-equivalent, but with no recovery waves: when a computing
    replica's control connection closes it is declared dead; if live
    siblings remain this is a {e failover} (nothing rolls back, the
    siblings simply keep computing) and a fresh replica is launched on a
    spare host to restore the replication degree via state transfer from
    a live sibling. A rank whose last live replica dies while a respawn
    is still in flight is {e at risk} for a 30 s failover window of
    simulated time; if no
    replica of the rank comes back live within the window — or none is in
    flight at all — the run is declared {e replication-exhausted}
    (the Buggy-equivalent terminal verdict).

    Trace events: [launch], [replica-registered], [app-started],
    [replica-failover], [replica-respawn], [rank-at-risk],
    [replication-exhausted], [rank-finished], [app-completed], plus the
    bookkeeping events shared with the Vcl dispatcher ([reallocate],
    [no-spare], [spawn-failed], [closure-ignored]). *)

type outcome = Mpivcl.Dispatch.outcome = Completed of float | Aborted of string

type t

(** [spawn env ~host ~host_of ~spare_hosts] starts the failover layer on
    [host] and launches every replica, placing [(rank, slot)] on
    [host_of ~rank ~slot]; [spare_hosts] is the pool used to relocate
    respawned replicas away from their (possibly faulty) original host. *)
val spawn :
  Renv.t -> host:int -> host_of:(rank:int -> slot:int -> int) -> spare_hosts:int list -> t

(** Blocks until the run completes or replication is exhausted. *)
val outcome : t -> outcome

val peek_outcome : t -> outcome option

(** Number of replica failures absorbed without any rollback. *)
val failovers : t -> int

(** Number of replicas respawned back to computing state. *)
val respawns : t -> int

val exhausted : t -> bool
