(** Prefix-sharing scheduler for the explorer.

    Plans whose faults are all [After]-anchored share their fault-free
    (and common-fault) simulation prefix: the scheduler arranges them in
    a trie over fault tuples and walks it, continuing one branch inline
    at each divergence point and queueing the others as jobs that
    replay their prefix from t = 0.  Jobs run on [jobs] worker processes
    forked once per campaign, or in the calling process at [jobs = 1].
    Verdicts, signatures and reports are byte-identical to replaying
    every plan from t = 0, at any [~jobs] (see docs/EXPLORER.md). *)

type stats = {
  forks : int;  (** worker processes forked: at most [jobs], none at 1 *)
  pauses : int;  (** breakpoints where a prefix state was shared onward *)
  fork_wall_s : float;  (** caller-side wall clock spent inside fork() *)
  snapshot_events_max : int;
      (** largest engine snapshot observed at a pause (pending events);
          0 unless [~measure:true] *)
  snapshot_words_max : int;  (** same, in heap words; 0 unless measured *)
}

val zero_stats : stats

(** A plan the scheduler can drive: at least one fault and every anchor
    a timer ([After]).  Reload-anchored plans wait on registration
    counts, not timers, and replay from scratch instead. *)
val forkable : Plan.t -> bool

(** [run ~jobs ~measure ~prepare ~summarize plans] drives every
    [(index, plan)] through the trie walk and returns the summaries
    tagged with their indices (order unspecified) plus the walk's
    statistics.  Plans whose scenario texts are equal run once.
    [prepare] launches a checkpoint for a plan (the spec with the plan's
    scenario installed); [summarize] runs in a worker and must return
    marshal-safe plain data — no closures.  [measure] additionally sizes
    an engine snapshot at every pause (bench instrumentation; costs a
    heap walk per pause).

    Raises [Failure] if a job raises or a worker dies; every worker is
    reaped first, whether [run] returns or raises. *)
val run :
  jobs:int ->
  measure:bool ->
  prepare:(Plan.t -> Failmpi.Run.checkpoint) ->
  summarize:(Plan.t -> Failmpi.Run.result -> 'a) ->
  (int * Plan.t) list ->
  (int * 'a) list * stats
