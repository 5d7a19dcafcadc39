open Simkern
open Simos

type handle = {
  env : Env.t;
  dispatcher : Dispatcher.t;
  scheduler : Scheduler.t option;
  servers : Ckpt_server.t list;
}

(* Dispatcher and scheduler first, then the checkpoint servers. *)
let service_hosts (cfg : Config.t) = 2 + cfg.n_ckpt_servers

let launch eng ?fci ~cfg ~app ~state_bytes ~n_compute () =
  let n_servers = cfg.Config.n_ckpt_servers in
  let base = Layout.make ~n_compute ~n_services:(service_hosts cfg) in
  let dispatcher_host = Layout.service base 0 and scheduler_host = Layout.service base 1 in
  let server_hosts = List.init n_servers (fun i -> Layout.service base (2 + i)) in
  if cfg.Config.n_ranks > n_compute then
    invalid_arg "Deploy.launch: more ranks than compute hosts";
  (match cfg.Config.protocol with
  | Config.Replication _ ->
      invalid_arg "Deploy.launch: the replication backend is deployed by Mpirep.Deploy"
  | Config.Ulfm _ ->
      invalid_arg "Deploy.launch: the ulfm backend is deployed by Mpiulfm.Deploy"
  | Config.Non_blocking | Config.Blocking | Config.Sender_logging -> ());
  let cluster, net = Dispatch.fabric eng ?fci cfg base in
  let env =
    {
      Env.eng;
      cluster;
      net;
      fci;
      cfg;
      disk = Local_disk.create ();
      app;
      state_bytes;
      dispatcher_host;
      scheduler_host;
      server_hosts = Array.of_list server_hosts;
      rng = Rng.split (Engine.rng eng);
    }
  in
  let servers =
    List.mapi
      (fun i host ->
        Ckpt_server.spawn eng cluster net ~host ~bandwidth:cfg.Config.server_bandwidth
          ~jitter:cfg.Config.store_jitter ~index:i ~server_hosts:env.Env.server_hosts
          ~replicas:cfg.Config.ckpt_replicas ~respawn:Ckpt_server.respawn_delay ())
      server_hosts
  in
  let scheduler =
    (* Coordinated checkpointing needs the global scheduler; the
       sender-logging protocol checkpoints each rank independently. *)
    if Config.restarts_all_ranks cfg then
      Some
        (Scheduler.spawn eng cluster net ~host:scheduler_host ~n_ranks:cfg.Config.n_ranks
           ~wave_interval:cfg.Config.wave_interval ~server_hosts)
    else None
  in
  let dispatcher =
    Dispatcher.spawn env ~host:dispatcher_host
      ~initial_hosts:(Array.init cfg.Config.n_ranks Fun.id)
      ~spare_limit:n_compute
  in
  (* Expose the infrastructure plane to FAIL scenarios: [halt service
     ckpt[i]] and friends resolve against these registrations. Service
     hosts stay outside the controller group, as in the paper — this is
     the only injection surface that reaches them. *)
  (match fci with
  | Some rt ->
      List.iteri
        (fun i srv ->
          Fci.Runtime.register_service rt
            ~name:(Printf.sprintf "ckpt[%d]" i)
            ~kill:(fun () -> Ckpt_server.inject_kill srv)
            ~freeze:(fun () -> Ckpt_server.freeze srv)
            ~unfreeze:(fun () -> Ckpt_server.unfreeze srv))
        servers;
      let host_tasks host = Cluster.tasks cluster ~host in
      Fci.Runtime.register_service rt ~name:"sched"
        ~kill:(fun () -> Cluster.kill_all cluster ~host:scheduler_host)
        ~freeze:(fun () -> List.iter Proc.freeze (host_tasks scheduler_host))
        ~unfreeze:(fun () -> List.iter Proc.unfreeze (host_tasks scheduler_host));
      Fci.Runtime.register_service rt ~name:"disp"
        ~kill:(fun () -> Cluster.kill_all cluster ~host:dispatcher_host)
        ~freeze:(fun () -> List.iter Proc.freeze (host_tasks dispatcher_host))
        ~unfreeze:(fun () -> List.iter Proc.unfreeze (host_tasks dispatcher_host))
  | None -> ());
  { env; dispatcher; scheduler; servers }

let cluster h = h.env.Env.cluster
let net h = h.env.Env.net

let teardown h =
  (* Disarm the servers' respawn hooks before the mass kill, or the
     teardown itself would schedule post-run respawns. *)
  List.iter Ckpt_server.halt h.servers;
  Layout.teardown h.env.Env.cluster
