(** MPICH-Vcl deployment parameters.

    Service times are calibrated against the paper's Grid Explorer setup
    (dual-Opteron nodes, GigE); see DESIGN.md §4. All times in simulated
    seconds, sizes in bytes. *)

type protocol =
  | Non_blocking  (** the paper's Vcl: computation continues during a wave *)
  | Blocking  (** ablation: communications frozen during a wave *)
  | Sender_logging
      (** MPICH-V2-style: pessimistic sender-based message logging with
          uncoordinated per-rank checkpoints; only the failed rank
          restarts (the protocol family the paper's conclusion proposes
          comparing under identical failure scenarios) *)
  | Replication of { degree : int }
      (** Active rank replication ([lib/mpirep]): every logical rank runs
          as [degree] replicas on distinct hosts; senders multicast,
          receivers deduplicate, and a replica failure costs {e no
          rollback at all} — the run only dies when every replica of one
          rank is lost inside the failover window. Deployed by
          [Mpirep.Deploy], not {!Deploy}. *)
  | Ulfm of { spares : int }
      (** ULFM-style shrink-and-continue ([lib/mpiulfm]): no rollback
          wave and no redundant computation — on a failure the survivors
          run a two-phase agreement over the suspected set, {e shrink}
          to a dense communicator, adopt (or hand to a promoted warm
          spare) the logical ranks of the dead, and continue from
          in-memory buddy snapshots. [spares] warm spare daemons idle
          until promoted. Deployed by [Mpiulfm.Deploy], not {!Deploy}. *)

type t = {
  n_ranks : int;
  protocol : protocol;
  wave_interval : float;  (** checkpoint scheduler period (paper: 30 s) *)
  n_ckpt_servers : int;
  server_bandwidth : float;  (** per-server store/restore throughput *)
  ssh_delay : float;  (** remote process launch latency *)
  relaunch_delay : float;
      (** dispatcher-side resource allocation before relaunching a rank
          during recovery (host selection, checkpoint bookkeeping) *)
  init_delay_min : float;
  init_delay_max : float;
      (** daemon start-up time (process restore, socket setup) between
          spawn and the dispatcher Hello — the window in which a fault
          kills an {e unregistered} daemon and the dispatcher retries
          cleanly (Figure 9's non-buggy cases); uniform jitter *)
  term_lag_min : float;
  term_lag_max : float;
      (** an old-wave daemon takes uniform [term_lag_min, term_lag_max] to
          honour a termination order (cleanup, flushing) — the spread that
          opens the recovery race window *)
  term_straggler_prob : float;
      (** with this probability a daemon adds uniform [0, 14] seconds
          ({!Vdaemon}'s [term_straggler_extra]) to its termination (e.g.
          it was mid-transfer) — the run-to-run recovery variance behind
          the paper's "chaotic" times (§5.2) *)
  store_jitter : float;
      (** relative jitter on checkpoint-server transfer times (disk and
          NFS contention) *)
  ckpt_replicas : int;
      (** checkpoint storage replication factor. [1] (the default) keeps
          the historical single-server-per-rank plane and is
          byte-identical to the pre-replication simulator; [2] mirrors
          every store to the rank's mirror server (the next server in
          the ring) before acking, and restores fail over to the mirror
          when the primary is unreachable. *)
  dispatcher_buggy : bool;
      (** historical dispatcher with the recovery-wave confusion the paper
          found; [false] = the corrected dispatcher *)
  vcl_seeded_race : bool;
      (** seeded defect for the explorer's acceptance demo (default
          [false], independent of [dispatcher_buggy]): a §6-style
          dispatcher race — a rank lost {e before the recovery wave
          reaches steady state} is forgotten instead of relaunched, and
          the deployment wedges. [lib/explore] must rediscover this from
          a bounded fault-space search and shrink the witness to two
          faults; it is never enabled by any experiment. *)
  lazy_peer_mesh : bool;
      (** open daemon-to-daemon connections on first send instead of
          eagerly building the full [n*(n-1)/2] mesh at start-up. The
          historical MPICH-V daemons connect all-to-all, which is faithful
          to the paper's 32-rank runs but quadratic in memory and events;
          sparse workloads at thousands of ranks only ever touch
          O(neighbours) links. Checkpoint waves adapt: a cut counts only
          the channels that exist, and a channel opened mid-wave exchanges
          markers on establishment. [false] (the default) keeps the eager
          mesh and stays byte-identical to the historical simulator. *)
  net : Simnet.Net.Perturb.profile option;
      (** launch-time network perturbation ([failmpi_run --net-*]):
          applied to the deployment's fabric before any process starts
          and wired into the FCI control plane. [None] (the default)
          leaves the network byte-identical to the unperturbed
          simulator. *)
  topology : Simtopo.Topo.spec option;
      (** physical network shape ([failmpi_run --topology]): validated
          at launch (the topology must seat every compute host) and
          handed to the FCI control plane, where FAIL topology groups
          ([switch agg\[2\]], [pod 1], [rack 3]) resolve against it.
          Purely descriptive until a component fault fires: [None] and
          [Some Flat] produce byte-identical runs. *)
}

(** Paper-like defaults for [n_ranks] ranks (non-blocking protocol,
    30 s waves, 2 checkpoint servers, buggy dispatcher — the version the
    paper evaluated). *)
val default : n_ranks:int -> t

(** [restarts_all_ranks cfg] is true for the coordinated-checkpointing
    protocols, whose recovery rolls every rank back; [Sender_logging]
    restarts only the failed rank and [Replication] restarts nothing. *)
val restarts_all_ranks : t -> bool

(** [replication_degree cfg] is [Some degree] for the replication backend,
    [None] for the rollback-recovery protocols. *)
val replication_degree : t -> int option

(** [ulfm_spares cfg] is [Some spares] for the shrink-and-continue
    backend, [None] otherwise. *)
val ulfm_spares : t -> int option

(** Short human-readable protocol label (CLI, experiment tables). *)
val protocol_name : protocol -> string

(** Ports used on service hosts. *)
val dispatcher_port : int

val scheduler_port : int
val server_port : int
val daemon_port : int
