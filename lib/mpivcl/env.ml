open Simkern
open Simos

type t = {
  eng : Engine.t;
  cluster : Cluster.t;
  net : Message.t Simnet.Net.t;
  fci : Fci.Runtime.t option;
  cfg : Config.t;
  disk : Local_disk.t;
  app : App.t;
  state_bytes : int;
  dispatcher_host : int;
  scheduler_host : int;
  server_hosts : int array;
  rng : Rng.t;
}

let storage_hosts t ~rank =
  let n = Array.length t.server_hosts in
  let primary = rank mod n in
  if t.cfg.Config.ckpt_replicas >= 2 && n >= 2 then
    [ t.server_hosts.(primary); t.server_hosts.((primary + 1) mod n) ]
  else [ t.server_hosts.(primary) ]
