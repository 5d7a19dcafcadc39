(** Shrink-and-continue campaign: the same kill / partition scenarios
    swept against every protocol backend on one cluster —
    the recovery-time vs answer-quality comparison of the headline
    [failmpi_experiments shrink] table.

    Four cells per family: fault-free baseline, one mid-run kill, the
    shrink storm (staggered kills, then a partition during the survivor
    agreement they triggered — [scenarios/shrink_storm.fail]), and a
    quorum-loss partition isolating six of the eleven epoch-0 members
    (ranks plus warm spares) so that no side of the cut holds a majority
    of the superseded epoch — the shrink backend's agreement must
    refuse to decide (clean abort) rather than split-brain. The CI smoke
    runs {!quick_config} (kill and quorum-loss cells only). *)

type case = Baseline | Kill_one | Storm | Quorum_loss

type config = {
  klass : Workload.Bt_model.klass;
  n_ranks : int;
  degree : int;  (** replicas per rank in the replication family *)
  spares : int;  (** warm spare daemons for the shrink family *)
  n_machines : int;
  cases : case list;
  reps : int;
  base_seed : int;
}

val default_config : config
val quick_config : config

(** [scenario_of config case] is the FAIL source of that grid cell
    ([None] for the baseline) — exposed for tests and qualitative runs. *)
val scenario_of : config -> case -> string option

type row = { family : string; case : case; agg : Harness.agg }

(** [?jobs] as in {!Harness.campaign}. *)
val run : ?jobs:int -> ?config:config -> unit -> row list

(** [aggs rows] projects the plain aggregates (CSV export). *)
val aggs : row list -> Harness.agg list

val render : row list -> string
val paper_note : string
