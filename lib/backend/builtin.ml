open Mpivcl

(* Fabric counters, reported only when the perturbation layer was ever
   touched. *)
let net_stats net =
  let p = Simnet.Net.perturb net in
  if Simnet.Net.Perturb.touched p then Some (Simnet.Net.Perturb.stats p) else None

(* The three rollback-recovery protocols share the MPICH-Vcl deployment
   (dispatcher, daemons, checkpoint servers) and differ only in the
   [Config.protocol] value they run under. *)
module type ROLLBACK_SPEC = sig
  val name : string
  val aliases : string list
  val doc : string
  val label : string
  val proto : Config.protocol
end

module Rollback (P : ROLLBACK_SPEC) : Intf.S = struct
  type handle = Deploy.handle

  let name = P.name
  let aliases = P.aliases
  let doc = P.doc
  let family_label ~replicas:_ = P.label
  let protocol ~replicas:_ = P.proto

  (* The paper's allocation: one host per rank plus four spares
     (53 machines for BT-49); services live beyond the compute range. *)
  let default_machines ~n_ranks ~replicas:_ = n_ranks + 4
  let service_hosts = Deploy.service_hosts

  let launch eng ?fci ~cfg ~app ~state_bytes ~n_compute () =
    if cfg.Config.protocol <> P.proto then
      invalid_arg
        (Printf.sprintf "%s backend cannot run protocol %s" name
           (Config.protocol_name cfg.Config.protocol));
    Deploy.launch eng ?fci ~cfg ~app ~state_bytes ~n_compute ()

  let await h = ignore (Dispatcher.outcome h.Deploy.dispatcher)

  (* Rollback recovery restores the original membership, so a run never
     ends degraded. A lost checkpoint beats a frozen dispatcher: the
     dispatcher also records it as a clean abort, but the verdict must
     indict the storage plane's replication degree, not the recovery
     protocol. *)
  let status h =
    let d = h.Deploy.dispatcher in
    match Dispatcher.peek_outcome d with
    | Some (Dispatcher.Completed t) -> Intf.Completed t
    | Some (Dispatcher.Aborted _) | None ->
        if Dispatcher.ckpt_lost d then Intf.Ckpt_lost
        else if Dispatcher.confused d || Dispatcher.race_lost d then Intf.Frozen
        else Intf.Running

  let metrics h =
    {
      Metrics.zero with
      Metrics.recoveries = Dispatcher.recoveries h.Deploy.dispatcher;
      committed_waves =
        (match h.Deploy.scheduler with
        | Some scheduler -> Scheduler.committed_count scheduler
        | None -> 0);
      confused = Dispatcher.confused h.Deploy.dispatcher;
      net = net_stats (Deploy.net h);
    }

  let teardown = Deploy.teardown
end

module Vcl = Rollback (struct
  let name = "vcl"
  let aliases = [ "non-blocking" ]

  let doc =
    "coordinated checkpointing, non-blocking Chandy-Lamport waves; any fault rolls \
     every rank back to the last committed wave"

  let label = "Vcl (coordinated)"
  let proto = Config.Non_blocking
end)

module Blocking = Rollback (struct
  let name = "blocking"
  let aliases = []

  let doc =
    "coordinated checkpointing with blocking (channel-flushing) Chandy-Lamport waves"

  let label = "Vcl (blocking)"
  let proto = Config.Blocking
end)

module V2 = Rollback (struct
  let name = "v2"
  let aliases = [ "logging" ]

  let doc =
    "sender-based message logging; only the failed rank restarts and replays from \
     its own checkpoint"

  let label = "V2 (msg logging)"
  let proto = Config.Sender_logging
end)

module Replication : Intf.S = struct
  type handle = Mpirep.Deploy.handle

  let name = "replication"
  let aliases = [ "rep" ]

  let doc =
    "active replication: degree replicas per rank, zero-rollback failover, respawn \
     via state transfer"

  let family_label ~replicas = Printf.sprintf "replication x%d" replicas
  let protocol ~replicas = Config.Replication { degree = replicas }

  (* degree x ranks replicas plus two spare hosts for respawns (so e.g.
     --ranks 4 --replicas 2 matches scenarios/replica_split.fail's
     machines 0..9). *)
  let default_machines ~n_ranks ~replicas = (replicas * n_ranks) + 2
  let service_hosts _ = Mpirep.Deploy.service_hosts
  let launch = Mpirep.Deploy.launch
  let await h = ignore (Mpirep.Rdispatcher.outcome h.Mpirep.Deploy.rdispatcher)

  (* Failover restores the full logical membership (every rank keeps
     computing somewhere); exhaustion is [Frozen], preserving the §5
     [Buggy] classification of the historical goldens. *)
  let status h =
    let rd = h.Mpirep.Deploy.rdispatcher in
    match Mpirep.Rdispatcher.peek_outcome rd with
    | Some (Mpirep.Rdispatcher.Completed t) -> Intf.Completed t
    | Some (Mpirep.Rdispatcher.Aborted _) | None ->
        if Mpirep.Rdispatcher.exhausted rd then Intf.Frozen else Intf.Running

  let metrics h =
    let rd = h.Mpirep.Deploy.rdispatcher in
    {
      Metrics.zero with
      Metrics.failovers = Mpirep.Rdispatcher.failovers rd;
      respawns = Mpirep.Rdispatcher.respawns rd;
      extra = [ ("exhausted", if Mpirep.Rdispatcher.exhausted rd then 1 else 0) ];
      net = net_stats (Mpirep.Deploy.net h);
    }

  let teardown = Mpirep.Deploy.teardown
end

module Ulfm : Intf.S = struct
  type handle = Mpiulfm.Deploy.handle

  let name = "ulfm"
  let aliases = [ "shrink" ]

  let doc =
    "ULFM-style shrink-and-continue: heartbeat failure detection raised into the \
     running collective, survivor agreement (majority of the superseded epoch), \
     communicator shrink with warm-spare promotion; completes degraded instead of \
     restoring membership"

  let family_label ~replicas:_ = "ULFM (shrink)"
  let protocol ~replicas:_ = Config.Ulfm { spares = 0 }

  (* One host per daemon; the paper-style four extra hosts double as the
     warm-spare pool when [--spares] asks for one. *)
  let default_machines ~n_ranks ~replicas:_ = n_ranks + 4
  let service_hosts _ = Mpiulfm.Deploy.service_hosts
  let launch = Mpiulfm.Deploy.launch
  let await h = ignore (Mpiulfm.Udispatcher.outcome h.Mpiulfm.Deploy.udispatcher)

  (* A run that finished on a shrunken communicator is [Degraded], never
     plain [Completed]. A ulfm run never freezes by protocol design — it
     completes, aborts cleanly, or is still detecting/agreeing at the
     timeout — except for a split-brain (two daemons deciding the same
     epoch differently), which the dispatcher cross-checks for and which
     is a genuine protocol bug. *)
  let status h =
    let ud = h.Mpiulfm.Deploy.udispatcher in
    match Mpiulfm.Udispatcher.peek_outcome ud with
    | Some (Mpiulfm.Udispatcher.Completed t) -> (
        match Mpiulfm.Udispatcher.survivors ud with
        | Some survivors -> Intf.Degraded { at = t; survivors }
        | None -> Intf.Completed t)
    | Some (Mpiulfm.Udispatcher.Aborted _) | None -> (
        match Mpiulfm.Udispatcher.abort_reason ud with
        | Some reason -> Intf.Aborted reason
        | None -> if Mpiulfm.Udispatcher.divergent ud then Intf.Frozen else Intf.Running)

  let metrics h =
    let ud = h.Mpiulfm.Deploy.udispatcher in
    {
      Metrics.zero with
      Metrics.recoveries = Mpiulfm.Udispatcher.shrinks ud;
      extra =
        [
          ("agree_ballots", Mpiulfm.Udispatcher.ballots ud);
          ("ranks_adopted", Mpiulfm.Udispatcher.adopted ud);
          ("spares_promoted", Mpiulfm.Udispatcher.promoted ud);
        ];
      net = net_stats (Mpiulfm.Deploy.net h);
    }

  let teardown = Mpiulfm.Deploy.teardown
end

let all : Intf.t list =
  [ (module Vcl); (module Blocking); (module V2); (module Replication); (module Ulfm) ]
