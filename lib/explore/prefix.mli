(** The explorer's worker pool and prefix-sharing scheduler.

    Every record of a campaign is computed by a job on one pool: up to
    [jobs] worker processes (at most 64), each forked when a queued job
    finds no idle worker, or the calling process at [jobs = 1].  A job
    replays one plan from t = 0, or walks a trie of plans over fault
    tuples: plans whose faults are all [After]-anchored, with no service
    freeze before the last, share their fault-free (and common-fault)
    simulation prefix, one branch continues inline at each divergence
    point and the others become jobs that replay their prefix from
    t = 0.  Verdicts, signatures and reports are byte-identical to
    replaying every plan from t = 0, at any [~jobs] (see
    docs/EXPLORER.md). *)

type stats = {
  forks : int;  (** worker processes forked: at most [min jobs 64], none at 1 *)
  pauses : int;  (** breakpoints where a prefix state was shared onward *)
  fork_wall_s : float;  (** caller-side wall clock spent inside fork() *)
  snapshot_events_max : int;
      (** largest engine queue ({!Simkern.Engine.queue_size}) at a
          pause; 0 unless [~measure:true] *)
}

(** The widest pool: [run] clamps [jobs] to it. *)
val max_jobs : int

(** [run ~jobs ~fork ~measure ~prepare ~summarize plans] computes a
    summary for every [(index, plan)] and returns them in index order,
    tagged with their indices, plus the campaign's statistics.  With
    [fork], plans whose faults are all [After]-anchored and that carry no
    service freeze before their last fault go through the trie walk
    (plans whose scenario texts are equal run once) and the rest replay;
    without it every plan replays.  [prepare] launches a
    checkpoint from a plan's scenario text (rendered once per plan);
    [summarize] may run in a worker and must return marshal-safe plain
    data — no closures.  [measure] additionally reads the engine's
    queue size at every pause (bench instrumentation).

    Raises [Failure] if a job raises or a worker dies; every worker is
    reaped first, whether [run] returns or raises. *)
val run :
  jobs:int ->
  fork:bool ->
  measure:bool ->
  prepare:(string -> Failmpi.Run.checkpoint) ->
  summarize:(Plan.t -> Failmpi.Run.result -> 'a) ->
  (int * Plan.t) list ->
  (int * 'a) list * stats
