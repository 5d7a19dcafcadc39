(** Systematic fault-space exploration (the paper's §6, automated).

    The explorer enumerates fault plans against one deployment, runs
    each through {!Failmpi.Run.execute} with the §5 classifier, hashes
    every run's milestone trace into a coverage signature, and
    delta-debugs whatever comes back buggy (optionally: hanging) down
    to a minimal, replayable [.fail] witness.

    Search strategy, deterministic in the configuration:
    - exhaustive grid over (target machine × time bucket × kind) for
      single faults;
    - exhaustive grid over ordered pairs for two-fault plans (the
      second fault's bucket is relative to the first, so pairs cover
      the "strike inside the recovery wave" shapes);
    - a seeded random sampler for 3 .. [max_faults] simultaneous
      faults;
    the stream is truncated to [budget] plans, runs fan out over
    {!Prefix}'s worker processes, and reports are assembled in input
    order — the same configuration yields byte-identical reports at any
    [?jobs]. *)

module Plan = Plan
module Shrink = Shrink
module Prefix = Prefix
module Corpus = Corpus
module Run = Failmpi.Run

(** [Degraded] is a ulfm run that finished on a shrunken communicator
    (by design, not shrinkable); [Aborted] is a backend that gave up
    cleanly — reproducible and minimizable like [Buggy]; [Ckpt_lost] is
    a restart that found no complete checkpoint image on any storage
    replica (also reproducible and minimizable). *)
type verdict =
  | Completed
  | Degraded
  | Aborted
  | Ckpt_lost
  | Non_terminating
  | Buggy
  | Net_hung

val verdict_name : verdict -> string
val verdict_of_outcome : Run.outcome -> verdict

(** [signature result] hashes the run's [(source, event)] trace pairs
    (FNV-1a 64) into a hex string: two runs with the same signature took
    the same externally observable path through the protocol. *)
val signature : Run.result -> string

type config = {
  n_machines : int;  (** compute hosts; must equal the runner spec's [n_compute] *)
  targets : int list;  (** machines worth shooting (typically the initial rank hosts) *)
  buckets : int list;  (** candidate injection delays, seconds *)
  kinds : Plan.kind list;  (** fault kinds to draw from *)
  max_faults : int;
  budget : int;  (** hard cap on the number of searched plans *)
  sample_seed : int;  (** seed of the >= 3-fault random sampler *)
  shrink_hangs : bool;  (** also minimize non-terminating plans (default false) *)
}

(** Kill-only defaults: [max_faults] 2, budget 200. Shrinking coarsens
    fault times on the grids 60/30/15/5/1 s. *)
val default_config : n_machines:int -> targets:int list -> buckets:int list -> config

(** [plans config] is the deterministic search stream, truncated to
    [config.budget]. Exposed for tests and coverage accounting. Raises
    [Invalid_argument] on a [max_faults] or [budget] below 1, an empty
    [targets], [buckets] or [kinds], or a target outside the compute
    hosts [0 .. n_machines - 1]. *)
val plans : config -> Plan.t list

type record = {
  plan : Plan.t;
  verdict : verdict;
  completion : float option;  (** simulated completion time, when completed *)
  injected : int;  (** FAIL [halt]s actually executed *)
  sig_hash : string;
}

type minimized = {
  found : Plan.t;  (** the plan the search stumbled on *)
  min_plan : Plan.t;  (** after {!Shrink.ddmin} + {!Shrink.coarsen} *)
  min_verdict : verdict;  (** reproduced classification *)
  probes : int;  (** oracle re-runs spent shrinking *)
  probes_saved : int;
      (** oracle re-runs answered from the per-witness memo instead
          (ddmin and coarsen revisit identical candidate plans) *)
  scenario : string;  (** [Plan.to_scenario min_plan], ready to save *)
}

type report = {
  config : config;
  records : record list;  (** one per searched plan, input order *)
  coverage : (string * verdict * int) list;
      (** distinct signatures in first-seen order, with run counts *)
  minimized : minimized list;  (** one per distinct failing signature *)
}

(** [runner_of_spec spec] is the standard runner: [spec] with the
    plan's scenario substituted and the trace level forced to
    [Summary] (signatures hash milestones only). Raises
    [Invalid_argument] if [spec.n_compute] differs from the plan's
    [n_machines]. *)
val runner_of_spec : Run.spec -> Plan.t -> Run.result

(** [run_spec ?jobs ?fork ?measure config ~spec] searches, classifies
    and shrinks with the standard runner.  Every plan runs as a job on
    {!Prefix}'s pool of [?jobs] worker processes (at most 64, none at
    1; default {!Par.default_jobs}).  With [fork] (default [true]),
    plans sharing a fault prefix execute that prefix once up to each
    divergence point, so big campaigns cost a fraction of replaying
    every plan — with a byte-identical report (any [?jobs]).  Plans the
    scheduler cannot drive (reload anchors, or a service freeze before
    the last fault, whose thaw arms the next fault's timer) replay as
    usual;
    [fork:false] replays everything.  Shrinking runs in the calling
    process.  [measure] reads the engine's queue size at every pause
    (bench instrumentation).  The campaign creates no domain.

    [?corpus] names a {!Corpus} directory (created on first save):
    already-tried plans are skipped on resume and the freed budget
    goes to seeded mutants of plans that produced new signatures; the
    corpus is updated and saved after the campaign.  Raises
    [Invalid_argument] when the directory holds a corpus written by an
    incompatible configuration. *)
val run_spec :
  ?jobs:int ->
  ?fork:bool ->
  ?measure:bool ->
  ?corpus:string ->
  config ->
  spec:Run.spec ->
  report * Prefix.stats

(** Human-readable report (verdict tallies, coverage, witnesses). *)
val render : report -> string

(** JSON report, deterministic field order — what
    [failmpi_explore --json] writes and CI archives. *)
val to_json : report -> string
