type protocol =
  | Non_blocking
  | Blocking
  | Sender_logging
  | Replication of { degree : int }
  | Ulfm of { spares : int }

type t = {
  n_ranks : int;
  protocol : protocol;
  wave_interval : float;
  n_ckpt_servers : int;
  server_bandwidth : float;
  ssh_delay : float;
  relaunch_delay : float;
  init_delay_min : float;
  init_delay_max : float;
  term_lag_min : float;
  term_lag_max : float;
  term_straggler_prob : float;
  store_jitter : float;
  ckpt_replicas : int;  (** 1 = primary only (historical behaviour), 2 = primary + mirror *)
  dispatcher_buggy : bool;
  vcl_seeded_race : bool;
  lazy_peer_mesh : bool;
  net : Simnet.Net.Perturb.profile option;
  topology : Simtopo.Topo.spec option;
}

let default ~n_ranks =
  {
    n_ranks;
    protocol = Non_blocking;
    wave_interval = 30.0;
    n_ckpt_servers = 3;
    server_bandwidth = 1e8;
    ssh_delay = 0.5;
    relaunch_delay = 0.2;
    init_delay_min = 0.1;
    init_delay_max = 0.6;
    term_lag_min = 0.2;
    term_lag_max = 4.0;
    term_straggler_prob = 0.065;
    store_jitter = 0.25;
    ckpt_replicas = 1;
    dispatcher_buggy = true;
    vcl_seeded_race = false;
    lazy_peer_mesh = false;
    net = None;
    topology = None;
  }

let restarts_all_ranks t =
  match t.protocol with
  | Non_blocking | Blocking -> true
  | Sender_logging | Replication _ | Ulfm _ -> false

let replication_degree t =
  match t.protocol with
  | Replication { degree } -> Some degree
  | Non_blocking | Blocking | Sender_logging | Ulfm _ -> None

let ulfm_spares t =
  match t.protocol with
  | Ulfm { spares } -> Some spares
  | Non_blocking | Blocking | Sender_logging | Replication _ -> None

let protocol_name = function
  | Non_blocking -> "non-blocking"
  | Blocking -> "blocking"
  | Sender_logging -> "sender-logging"
  | Replication { degree } -> Printf.sprintf "replication-r%d" degree
  | Ulfm { spares } ->
      if spares = 0 then "ulfm" else Printf.sprintf "ulfm-s%d" spares

let dispatcher_port = 100
let scheduler_port = 101
let server_port = 102
let daemon_port = 7000
