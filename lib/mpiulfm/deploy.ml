open Simkern
open Simos
module Config = Mpivcl.Config

type handle = { env : Uenv.t; udispatcher : Udispatcher.t }

let service_hosts = 1

let launch eng ?fci ~cfg ~app ~state_bytes ~n_compute () =
  let spares =
    match Config.ulfm_spares cfg with
    | Some s when s >= 0 -> s
    | Some s -> invalid_arg (Printf.sprintf "Mpiulfm.Deploy.launch: %d spares < 0" s)
    | None -> invalid_arg "Mpiulfm.Deploy.launch: protocol is not Ulfm"
  in
  let n_ranks = cfg.Config.n_ranks in
  let population = n_ranks + spares in
  if population > n_compute then
    invalid_arg
      (Printf.sprintf
         "Mpiulfm.Deploy.launch: %d daemons (%d ranks + %d spares) need more than %d compute \
          hosts"
         population n_ranks spares n_compute);
  (* One service host: the ulfm dispatcher. No checkpoint servers — state
     survives in the daemons themselves (buddy backups), and failed hosts
     are never reused. *)
  let base = Layout.make ~n_compute ~n_services:service_hosts in
  let dispatcher_host = Layout.service base 0 in
  let cluster, net = Mpivcl.Dispatch.fabric eng ?fci cfg base in
  let env =
    {
      Uenv.eng;
      cluster;
      net;
      fci;
      cfg;
      app;
      state_bytes;
      dispatcher_host;
      population;
      rng = Rng.split (Engine.rng eng);
    }
  in
  (* Daemon d starts on host d: ranks occupy the same hosts the rollback
     backends use (machine-indexed FAIL scenarios hit the same logical
     ranks), spares sit on the hosts just above them. *)
  let udispatcher = Udispatcher.spawn env ~host:dispatcher_host in
  { env; udispatcher }

let cluster h = h.env.Uenv.cluster
let net h = h.env.Uenv.net
let teardown h = Layout.teardown h.env.Uenv.cluster
