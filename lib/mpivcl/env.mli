(** Shared environment threaded through the MPICH-Vcl components. *)

open Simkern
open Simos

type t = {
  eng : Engine.t;
  cluster : Cluster.t;
  net : Message.t Simnet.Net.t;
  fci : Fci.Runtime.t option;  (** [None]: run without fault injection *)
  cfg : Config.t;
  disk : Local_disk.t;
  app : App.t;
  state_bytes : int;  (** per-rank checkpoint image base size *)
  dispatcher_host : int;
  scheduler_host : int;
  server_hosts : int array;
  rng : Rng.t;  (** service-time jitter (termination lags) *)
}

(** [storage_hosts t ~rank] are the rank's checkpoint-server hosts in
    failover order: its primary, server [rank mod n_servers], then its
    mirror, the next server in the ring, unless replication is off
    ([ckpt_replicas < 2]) or there is only one server. *)
val storage_hosts : t -> rank:int -> int list
