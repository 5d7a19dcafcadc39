(** Network-fault campaign: message loss swept against every protocol
    backend on one cluster, all through the launch-time
    perturbation profile ([Config.net]) and the reliable transport.

    One {!run} produces, per (loss level x family), the completed-run
    time, the fabric counters (messages dropped, wire retransmissions)
    and the §5 verdict split — including the [net-hung] refinement that
    separates network-explained wedges from protocol bugs. The CI smoke
    runs {!quick_config}; [BENCH_netfault.json] tracks the perturb-off
    overhead of the same sweep. *)

type config = {
  klass : Workload.Bt_model.klass;
  n_ranks : int;
  degree : int;  (** replicas per rank in the replication family *)
  n_machines : int;
  loss_levels : float list;  (** per-message drop probabilities; 0.0 = baseline *)
  reps : int;
  base_seed : int;
}

val default_config : config
val quick_config : config

type row = { family : string; loss : float; agg : Harness.agg }

(** [?jobs] as in {!Harness.campaign}. *)
val run : ?jobs:int -> ?config:config -> unit -> row list

(** [aggs rows] projects the plain aggregates (CSV export). *)
val aggs : row list -> Harness.agg list

val render : row list -> string
val paper_note : string
