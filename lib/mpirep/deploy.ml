open Simkern
open Simos
module Config = Mpivcl.Config

type handle = { env : Renv.t; rdispatcher : Rdispatcher.t }

let service_hosts = 1

let launch eng ?fci ~cfg ~app ~state_bytes ~n_compute () =
  let degree =
    match Config.replication_degree cfg with
    | Some d when d >= 1 -> d
    | Some d -> invalid_arg (Printf.sprintf "Mpirep.Deploy.launch: degree %d < 1" d)
    | None -> invalid_arg "Mpirep.Deploy.launch: protocol is not Replication"
  in
  let n_ranks = cfg.Config.n_ranks in
  if degree * n_ranks > n_compute then
    invalid_arg
      (Printf.sprintf
         "Mpirep.Deploy.launch: %d replicas (degree %d x %d ranks) need more than %d compute hosts"
         (degree * n_ranks) degree n_ranks n_compute);
  (* One service host: the failover dispatcher. No checkpoint scheduler
     and no checkpoint servers exist in this family. *)
  let base = Layout.make ~n_compute ~n_services:service_hosts in
  let dispatcher_host = Layout.service base 0 in
  let cluster, net = Mpivcl.Dispatch.fabric eng ?fci cfg base in
  let env =
    {
      Renv.eng;
      cluster;
      net;
      fci;
      cfg;
      degree;
      app;
      state_bytes;
      dispatcher_host;
      rng = Rng.split (Engine.rng eng);
    }
  in
  (* Slot s of rank r starts on host s * n_ranks + r: replicas of a rank
     land on distinct hosts, and slot 0 occupies the same hosts the
     rollback backends use, so machine-indexed FAIL scenarios hit the
     same logical ranks. *)
  let spare_hosts = List.init (n_compute - (degree * n_ranks)) (fun i -> (degree * n_ranks) + i) in
  let rdispatcher =
    Rdispatcher.spawn env ~host:dispatcher_host
      ~host_of:(fun ~rank ~slot -> (slot * n_ranks) + rank)
      ~spare_hosts
  in
  { env; rdispatcher }

let cluster h = h.env.Renv.cluster
let net h = h.env.Renv.net
let teardown h = Layout.teardown h.env.Renv.cluster
