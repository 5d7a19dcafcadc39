(** One ulfm daemon: failure detector, rank host and the adapter that
    runs {!Agree}, the survivor agreement, in a single event loop per
    cluster host.

    A silent peer (suspicion timeout), a torn peer connection or a
    received [Revoke] revokes whatever is running, like ULFM's
    [MPI_ERR_PROC_FAILED] inside [MPI_Allreduce]. The daemon feeds
    {!Agree} its agreement messages, timers and suspicions and performs
    the returned actions in order. Installing an epoch fetches missing
    snapshots, re-knits a recursive-doubling sync collective and
    restarts the assigned ranks; a daemon outside the members fences
    itself off. Each commit is backed up to the next member around the
    ring, so the restart point survives one failure between commits.

    Trace events, all recorded under [udaemon-N], those {!Agree} asks
    for included: [daemon-start], [start], [revoke], [ballot],
    [quorum-lost], [ballot-timeout], [decide], [epoch-install], [fenced],
    [peer-lost], [fetch-failed], [sync-complete], [sync-mismatch],
    [apps-started], [rank-done], [restart-unavailable], [abort],
    [daemon-exit], [protocol-error]. *)

val spawn : Uenv.t -> id:int -> incarnation:int -> Simkern.Proc.t
