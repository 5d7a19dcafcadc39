(** Assembles a full MPICH-Vcl run: cluster layout, checkpoint servers,
    scheduler, dispatcher.

    Host numbering convention (shared with the FAIL scenarios of
    {!Fail_lang.Paper_scenarios}): compute hosts are [0 .. n_compute-1]
    (MPI ranks start on [0 .. n_ranks-1], the rest are spares), the FAIL
    coordinator machine is [n_compute], and service hosts (dispatcher,
    scheduler, checkpoint servers) come after — they are never subject to
    fault injection, as in the paper. *)

open Simkern
open Simos

type handle = {
  env : Env.t;
  dispatcher : Dispatcher.t;
  scheduler : Scheduler.t option;  (** absent for [Sender_logging] *)
  servers : Ckpt_server.t list;
}

(** [service_hosts cfg] is the number of service hosts: dispatcher,
    scheduler and [cfg.n_ckpt_servers] checkpoint servers. *)
val service_hosts : Config.t -> int

(** [launch engine ?fci ~cfg ~app ~state_bytes ~n_compute ()] creates the
    cluster and network, starts the services and the dispatcher (which
    launches the ranks). Returns immediately; progress happens as the
    engine runs. *)
val launch :
  Engine.t ->
  ?fci:Fci.Runtime.t ->
  cfg:Config.t ->
  app:App.t ->
  state_bytes:int ->
  n_compute:int ->
  unit ->
  handle

(** [cluster h] / [net h] expose the substrate for tests. *)
val cluster : handle -> Cluster.t

val net : handle -> Message.t Simnet.Net.t

(** [teardown h] kills every infrastructure and compute task (experiment
    timeout). *)
val teardown : handle -> unit
