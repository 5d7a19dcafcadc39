(** Deployment of the ulfm shrink-and-continue backend — the
    [Mpivcl.Deploy] counterpart for [Config.Ulfm].

    Host layout: compute hosts [0 .. n_ranks-1] hold the computing
    daemons (daemon [d] on host [d], mirroring the rollback backends'
    placement so machine-indexed FAIL scenarios hit the same logical
    ranks); hosts [n_ranks .. n_ranks+spares-1] hold the warm spares;
    then the FAIL coordinator host and the dispatcher host. No
    checkpoint servers exist in this family: committed state survives as
    buddy backups inside the daemon population. *)

type handle = { env : Uenv.t; udispatcher : Udispatcher.t }

(** One service host: the dispatcher. *)
val service_hosts : int

(** Requires [cfg.protocol = Ulfm { spares }] with
    [n_ranks + spares <= n_compute]; raises [Invalid_argument]
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
val net : handle -> Umsg.t Simnet.Net.t
val teardown : handle -> unit
