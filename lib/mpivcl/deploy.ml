open Simkern
open Simos

type layout = {
  n_compute : int;
  coordinator_host : int;
  dispatcher_host : int;
  scheduler_host : int;
  server_hosts : int list;
  total_hosts : int;
}

(* Dispatcher and scheduler first, then the checkpoint servers. *)
let base_layout ~n_compute ~n_servers =
  Layout.make ~n_compute ~n_services:(2 + n_servers)

let of_base (base : Layout.t) ~n_servers =
  {
    n_compute = base.Layout.n_compute;
    coordinator_host = base.Layout.coordinator_host;
    dispatcher_host = Layout.service base 0;
    scheduler_host = Layout.service base 1;
    server_hosts = List.init n_servers (fun i -> Layout.service base (2 + i));
    total_hosts = base.Layout.total_hosts;
  }

let make_layout ~n_compute ~n_servers =
  of_base (base_layout ~n_compute ~n_servers) ~n_servers

type handle = {
  env : Env.t;
  lay : layout;
  dispatcher : Dispatcher.t;
  scheduler : Scheduler.t option;
  servers : Ckpt_server.t list;
}

let launch eng ?fci ~cfg ~app ~state_bytes ~n_compute () =
  let n_servers = cfg.Config.n_ckpt_servers in
  let base = base_layout ~n_compute ~n_servers in
  let lay = of_base base ~n_servers in
  if cfg.Config.n_ranks > n_compute then
    invalid_arg "Deploy.launch: more ranks than compute hosts";
  (match cfg.Config.protocol with
  | Config.Replication _ ->
      invalid_arg "Deploy.launch: the replication backend is deployed by Mpirep.Deploy"
  | Config.Ulfm _ ->
      invalid_arg "Deploy.launch: the ulfm backend is deployed by Mpiulfm.Deploy"
  | Config.Non_blocking | Config.Blocking | Config.Sender_logging -> ());
  let cluster, net = Layout.fabric eng base in
  (* Perturb the fabric before any process starts, then hand it to the
     FCI control plane so daemon traffic rides the same links. *)
  (match cfg.Config.net with
  | Some profile -> Simnet.Net.Perturb.apply (Simnet.Net.perturb net) profile
  | None -> ());
  (match fci with
  | Some rt -> Fci.Runtime.set_fabric rt (Simnet.Net.perturb net)
  | None -> ());
  (* Validate the declared topology against the compute pool at launch —
     a fabric too small for the job is a configuration error, not a
     mid-run trace. Unperturbed runs never consult the geometry. *)
  (match cfg.Config.topology with
  | Some spec -> (
      let topo = Simtopo.Topo.for_cluster spec ~n_compute in
      match fci with
      | Some rt -> Fci.Runtime.set_topology rt topo
      | None -> ())
  | None -> ());
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
      dispatcher_host = lay.dispatcher_host;
      scheduler_host = lay.scheduler_host;
      server_hosts = Array.of_list lay.server_hosts;
      rng = Rng.split (Engine.rng eng);
    }
  in
  let servers =
    List.mapi
      (fun i host ->
        Ckpt_server.spawn eng cluster net ~host ~bandwidth:cfg.Config.server_bandwidth
          ~jitter:cfg.Config.store_jitter ~index:i ~server_hosts:env.Env.server_hosts
          ~replicas:cfg.Config.ckpt_replicas ~respawn:Ckpt_server.respawn_delay ())
      lay.server_hosts
  in
  let scheduler =
    (* Coordinated checkpointing needs the global scheduler; the
       sender-logging protocol checkpoints each rank independently. *)
    if Config.restarts_all_ranks cfg then
      Some
        (Scheduler.spawn eng cluster net ~host:lay.scheduler_host ~n_ranks:cfg.Config.n_ranks
           ~wave_interval:cfg.Config.wave_interval ~server_hosts:lay.server_hosts)
    else None
  in
  let dispatcher =
    Dispatcher.spawn env ~host:lay.dispatcher_host
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
        ~kill:(fun () -> Cluster.kill_all cluster ~host:lay.scheduler_host)
        ~freeze:(fun () -> List.iter Proc.freeze (host_tasks lay.scheduler_host))
        ~unfreeze:(fun () -> List.iter Proc.unfreeze (host_tasks lay.scheduler_host));
      Fci.Runtime.register_service rt ~name:"disp"
        ~kill:(fun () -> Cluster.kill_all cluster ~host:lay.dispatcher_host)
        ~freeze:(fun () -> List.iter Proc.freeze (host_tasks lay.dispatcher_host))
        ~unfreeze:(fun () -> List.iter Proc.unfreeze (host_tasks lay.dispatcher_host))
  | None -> ());
  { env; lay; dispatcher; scheduler; servers }

let cluster h = h.env.Env.cluster
let net h = h.env.Env.net

let teardown h =
  (* Disarm the servers' respawn hooks before the mass kill, or the
     teardown itself would schedule post-run respawns. *)
  List.iter Ckpt_server.halt h.servers;
  Layout.teardown h.env.Env.cluster
