(** Experiment harness: replication, aggregation and table rendering.

    Mirrors the paper's methodology (§5): every configuration is run
    several times with different seeds under a 1500 s timeout; runs are
    classified completed / non-terminating / buggy; completed runs report
    the mean execution time. *)

(** Aggregated view of one experimental configuration. *)
type agg = {
  label : string;
  runs : int;
  completed : int;  (** finished on the full original membership *)
  degraded : int;
      (** finished, but on a shrunken communicator (ulfm backend) —
          counted in the time statistics, kept apart in the tallies *)
  aborted : int;  (** the backend gave up cleanly (e.g. no shrink quorum) *)
  non_terminating : int;
  buggy : int;
  net_hung : int;  (** wedges explained by an actively faulty network *)
  ckpt_lost : int;
      (** a restart found no complete checkpoint image on any storage
          replica — the run ended in the [Ckpt_lost] verdict *)
  mean_time : float option;  (** over completed and degraded runs *)
  stddev_time : float option;
  mean_survivors : float option;  (** over degraded runs *)
  pct_degraded : float;
  pct_aborted : float;
  pct_non_terminating : float;
  pct_buggy : float;
  pct_net_hung : float;
  pct_ckpt_lost : float;
  mean_faults : float;  (** injected faults per run *)
  checksum_failures : int;
      (** completed or degraded runs whose final checksum differs from
          the fault-free reference — must always be 0 *)
  mean_counters : (string * float) list;
      (** per-run mean of every backend counter
          ({!Failmpi.Backend.Metrics.counters}) seen in the results,
          sorted by counter name so mixed-backend campaigns render a
          stable column order *)
}

(** [replicate ?jobs ~reps ~base_seed run] executes [run ~seed] for
    seeds [base_seed, base_seed+1, ...], fanned out over a {!Par}
    domain pool ([?jobs] defaults to {!Par.default_jobs}; [~jobs:1] is
    the plain sequential loop). Results are in seed order and identical
    to the sequential path — every run is a pure function of its
    seed. *)
val replicate :
  ?jobs:int ->
  reps:int ->
  base_seed:int ->
  (seed:int64 -> Failmpi.Run.result) ->
  Failmpi.Run.result list

(** One configuration of a campaign: [reps] runs seeded
    [base_seed, base_seed+1, ...], tagged for regrouping. A cell is a
    closure: building one runs nothing. *)
type 'a cell = {
  tag : 'a;
  reps : int;
  base_seed : int;
  runner : seed:int64 -> Failmpi.Run.result;
}

val cell :
  tag:'a ->
  reps:int ->
  base_seed:int ->
  (seed:int64 -> Failmpi.Run.result) ->
  'a cell

(** [campaign ?jobs cells] runs every (cell, seed) job of the campaign
    through one domain pool — the single parallelism chokepoint used by
    every experiment table — and regroups results per cell, in cell
    order, seeds in order. Parallel and sequential execution produce
    identical results. *)
val campaign : ?jobs:int -> 'a cell list -> ('a * Failmpi.Run.result list) list

(** [aggregate ~label results] summarises replicated runs. *)
val aggregate : label:string -> Failmpi.Run.result list -> agg

(** [counter agg name] is the mean of backend counter [name]
    (0.0 when the backends reported no such counter). *)
val counter : agg -> string -> float

(** One column of a rendered table: its header, its minimum width and
    the text of one aggregate's cell. *)
type column = { head : string; width : int; value : agg -> string }

(** [render ~title ~columns aggs] prints the title, its underline, the
    header row and one row per aggregate. The first column is
    left-aligned, the others right-aligned, one space apart; a column is
    as wide as its longest cell if that is wider than its [width]. *)
val render : title:string -> columns:column list -> agg list -> string

(** The configuration (label) column, [width] wide. *)
val label : int -> column

(** [num head width digits f] prints [f agg] with [digits] decimals. *)
val num : string -> int -> int -> (agg -> float) -> column

(** [opt head width digits f] is {!num} for a value that may be
    missing, printed ["-"]. *)
val opt : string -> int -> int -> (agg -> float option) -> column

(** [time width]: the mean time of terminated runs, ["-"] if none. *)
val time : int -> column

val runs : int -> column

(** [chk width]: ["ok"], or ["N BAD"] for N checksum failures. *)
val chk : int -> column

(** The paper's table: label, runs, mean and stddev of the execution
    time of terminated runs, faults, %% degraded, %% non-terminating,
    %% buggy, %% net-hung and the checksum verdict. *)
val standard : column list

(** [render_table ~title aggs] is [render ~title ~columns:standard aggs]. *)
val render_table : title:string -> agg list -> string

(** [aggs_csv aggs] renders aggregates as CSV for external plotting. The
    fixed verdict columns are followed by one column per backend counter
    — the sorted union across all aggregates, so the sheet is
    rectangular and the column order is independent of row order. *)
val aggs_csv : agg list -> string

(** [bt_spec ?cfg ?trace_level ~klass ~n_ranks ~n_machines ~scenario ()]
    builds the standard spec used by all figures: a BT application with
    the paper's 53-machines-for-49-ranks style spare allocation.
    [trace_level] defaults to {!Simkern.Trace.Summary} — campaigns only
    read aggregates, so per-message trace chatter is dropped unformatted
    (see {!Simkern.Trace.record}); pass
    [~trace_level:Full] for qualitative runs fed to {!Trace_analysis}. *)
val bt_spec :
  ?cfg:Mpivcl.Config.t ->
  ?trace_level:Simkern.Trace.level ->
  klass:Workload.Bt_model.klass ->
  n_ranks:int ->
  n_machines:int ->
  scenario:string option ->
  unit ->
  Failmpi.Run.spec

(** [run_bt ?cfg ?trace_level ~klass ~n_ranks ~n_machines ~scenario ~seed ()]
    executes one BT run with checksum validation. *)
val run_bt :
  ?cfg:Mpivcl.Config.t ->
  ?trace_level:Simkern.Trace.level ->
  klass:Workload.Bt_model.klass ->
  n_ranks:int ->
  n_machines:int ->
  scenario:string option ->
  seed:int64 ->
  unit ->
  Failmpi.Run.result

(** [machines_for n_ranks] is the paper-style host allocation
    ([n_ranks + 4] spares; 53 for BT-49).

    @raise Invalid_argument when [n_ranks <= 0]. *)
val machines_for : int -> int
