(** The FAIL scenarios of the paper, as source text.

    Each function returns a complete program (daemons + deployment) for a
    cluster of [n_machines] computing hosts; the coordinator daemon [P1]
    runs on the extra machine [n_machines] and the per-node controller
    group [G1] on machines [0 .. n_machines-1], mirroring the paper's
    "53 machines devoted to BT-49" setup.

    Message protocol between coordinator and controllers (paper §5):
    - [crash]: order to kill the MPI process controlled by the target;
    - [ok] / [no]: positive / negative acknowledgement ([no] when no MPI
      process is currently running under that controller);
    - [waveok]: a controller observed the start of the first recovery wave
      (Figures 8 and 10);
    - [nocrash]: coordinator tells a controller to let its process run
      (Figure 10). *)

(** Figure 5(a): coordinator injecting one fault every [period] seconds on
    a uniformly chosen node. Used for the fault-frequency (Fig. 5) and
    scale (Fig. 6) experiments. *)
val frequency : n_machines:int -> period:int -> string

(** Figure 7(a): coordinator injecting [count] back-to-back faults every
    [period] seconds. *)
val simultaneous : n_machines:int -> period:int -> count:int -> string

(** Figure 8: two synchronized faults — the second is injected on the
    first controller that observes the recovery wave (its second
    [onload]). *)
val synchronized : n_machines:int -> period:int -> string

(** Figure 10: state-synchronized faults — the second fault is injected
    just before the relaunched daemon calls [localMPI_setCommand], i.e.
    right after it registered with the dispatcher. *)
val state_synchronized : n_machines:int -> period:int -> string

(** Replication-backend scenario: kill slot 0 of logical rank [rank] at
    [start] seconds, then slot 1 (machine [rank + n_ranks] under the
    mpirep layout) [gap] seconds later. [gap] shorter than the respawn
    latency exhausts the rank's replication inside the failover window;
    a longer gap is absorbed as two independent failovers. A parameterized
    file version lives in [scenarios/replica_split.fail]. *)
val replica_split :
  n_machines:int -> n_ranks:int -> rank:int -> start:int -> gap:int -> string

(** §6 shape, in the explorer's fault-plan form ({!Codegen.Scenario}):
    kill machine [first] at [start] seconds, then kill machine [second]
    [gap] seconds after the [nth] cumulative daemon registration —
    with [nth] = initial launches + 1, that is [gap] seconds into the
    recovery wave the first kill triggered. A parameterized file version
    lives in [scenarios/double_strike.fail]. *)
val double_strike :
  n_machines:int -> first:int -> second:int -> start:int -> nth:int -> gap:int -> string

(** Shrink storm, in the explorer's fault-plan form
    ({!Codegen.Scenario}): kill the [targets] machines one by one —
    the first at [start] seconds, each following kill [step] seconds
    after the previous — staggered so they land inside a running
    collective, then partition machine [victim] [lag] seconds after the
    last kill, i.e. during the survivor agreement the kills triggered.
    Aimed at the shrink-and-continue backend: the agreement must either
    reach a majority of the superseded epoch and decide, or refuse —
    never decide differently on the two sides of the cut. A
    parameterized file version lives in [scenarios/shrink_storm.fail]. *)
val shrink_storm :
  n_machines:int ->
  targets:int list ->
  start:int ->
  step:int ->
  victim:int ->
  lag:int ->
  string

(** Checkpoint sniper, in the explorer's fault-plan form
    ({!Codegen.Scenario}): kill checkpoint server [server] (a service
    fault — [halt service ckpt\[server\]]) at [start] seconds, timed to
    land inside a wave's store window so the in-flight image is torn on
    that server's disk, then kill the process on machine [rank] [gap]
    seconds later while the server is still respawning. With mirroring
    on ([ckpt_replicas >= 2]) the restarted rank fails over to the
    mirror and recovery completes; with a single replica the restart
    finds no complete image and the run ends in the Ckpt_lost verdict
    instead of hanging. A parameterized file version lives in
    [scenarios/ckpt_sniper.fail]. *)
val ckpt_sniper :
  n_machines:int -> server:int -> start:int -> rank:int -> gap:int -> string

(** All scenarios with representative parameters, for tests and demos. *)
val all : (string * string) list
