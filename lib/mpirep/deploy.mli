(** Deployment of the replication backend — the [Mpivcl.Deploy]
    counterpart for [Config.Replication].

    Host layout: compute hosts [0 .. n_compute-1] hold the replicas
    (slot [s] of rank [r] starts on host [s * n_ranks + r], so sibling
    replicas live on distinct hosts and slot 0 mirrors the rollback
    backends' placement for machine-indexed FAIL scenarios); unclaimed
    compute hosts form the respawn spare pool; then the FAIL coordinator
    host and the dispatcher host. No checkpoint scheduler and no
    checkpoint servers exist in this family. *)

type handle = { env : Renv.t; rdispatcher : Rdispatcher.t }

(** One service host: the dispatcher. *)
val service_hosts : int

(** Requires [cfg.protocol = Replication { degree }] with
    [degree * n_ranks <= n_compute]; raises [Invalid_argument]
    otherwise. *)
val launch :
  Simkern.Engine.t ->
  ?fci:Fci.Runtime.t ->
  cfg:Mpivcl.Config.t ->
  app:Mpivcl.App.t ->
  state_bytes:int ->
  n_compute:int ->
  unit ->
  handle

val cluster : handle -> Simos.Cluster.t
val net : handle -> Rmsg.t Simnet.Net.t
val teardown : handle -> unit
