(** Launch-and-observe layer of the ulfm backend.

    Thin by design: it launches the daemon population (computing daemons
    plus warm spares), fires the start gun once everyone is ready, and
    then only {e observes} — per-rank completions ([Rank_done], deduped
    across re-executions and adopted ranks) and per-epoch shrink reports
    ([Epoch_report], first reporter's tallies win; later reports are
    cross-checked against the first and any mismatch flags the run
    {!divergent}). After the start nothing is ever relaunched:
    shrink-and-continue means the surviving daemons absorb every
    failure themselves. The run aborts only when the entire population
    is dead, carrying the first daemon-reported abort reason (ballot
    budget exhausted, typically under an unhealed partition) if any.

    Trace events: [launch], [daemon-registered], [app-started],
    [shrink], [daemon-abort], [daemon-dead], [rank-finished],
    [app-completed], [app-aborted], [spawn-retry]. *)

type outcome = Mpivcl.Dispatch.outcome = Completed of float | Aborted of string

type t

val spawn : Uenv.t -> host:int -> t

(** Blocks until every rank finalized or the population died out. *)
val outcome : t -> outcome

val peek_outcome : t -> outcome option

(** Highest epoch installed by any agreement (0 = never shrunk). *)
val shrinks : t -> int

(** Distinct daemons hosting ranks in the latest epoch, or [None] if the
    communicator never shrank — the degraded-verdict signal. *)
val survivors : t -> int option

(** Agreement ballots spent, summed over epochs (first reporter's count). *)
val ballots : t -> int

(** Warm spares promoted to computing members, summed over epochs. *)
val promoted : t -> int

(** Orphaned ranks adopted by surviving members, summed over epochs. *)
val adopted : t -> int

val abort_reason : t -> string option

(** Two daemons reported the same epoch with different memberships or
    restart points — a split-brain the agreement must make impossible.
    Surfaced as [Frozen] (§5 buggy) by the backend's status. *)
val divergent : t -> bool
