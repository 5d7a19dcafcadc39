(** Protocol-family comparison under the fault-frequency scenario
    (Figure 5's harness), one row per backend in
    {!Failmpi.Backend.all} — coordinated rollback (Vcl, blocking),
    sender-based message logging (V2), active replication (mpirep) and
    shrink-and-continue (ulfm) —
    all driven by the same FAIL scenario text on the same cluster.

    One {!run} produces, per fault period and family, the completed-run
    time, dispatcher recovery waves (rollback families), replica
    failovers / respawns (replication family) and checksum validation —
    the replication rows must show zero recovery waves where the
    rollback rows show at least one. The per-family counters come
    straight from the aggregated backend metrics
    ({!Harness.counter}). *)

type config = {
  klass : Workload.Bt_model.klass;
  n_ranks : int;
  degree : int;  (** replicas per logical rank in the replication family *)
  n_machines : int;  (** compute hosts; needs [degree * n_ranks] at least *)
  periods : int option list;  (** [None] = fault-free baseline *)
  reps : int;
  base_seed : int;
}

val default_config : config
val quick_config : config

type row = { family : string; agg : Harness.agg }

(** [?jobs] as in {!Harness.campaign}. *)
val run : ?jobs:int -> ?config:config -> unit -> row list

(** [aggs rows] projects the plain aggregates (CSV export). *)
val aggs : row list -> Harness.agg list

val render : row list -> string
val paper_note : string
