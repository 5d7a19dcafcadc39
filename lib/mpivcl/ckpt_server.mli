(** Checkpoint server.

    Collects local checkpoints from its assigned ranks, keeps exactly one
    complete committed global checkpoint per rank, and serves images back
    on restart. Transfers are serialized through the server — a store or
    fetch occupies it for [bytes / bandwidth] seconds, which is what makes
    checkpoint/recovery slower when images are bigger (the paper's 25-node
    anomaly in §5.2).

    The two-slot alternation of §3 is an explicit prepare/commit
    protocol: a store stamps its slot incomplete before the transfer and
    seals it after, so a server killed mid-store leaves a detectably torn
    image that the restart scan discards — recovery always lands on the
    last {e complete} wave. With [replicas >= 2] the plane is replicated:
    each rank's primary ([rank mod n]) pushes sealed images to the next
    server in the ring and only acks the daemon once the mirror acked,
    and a respawned server re-syncs both shards it serves from its
    neighbours before opening its listener. *)

open Simkern
open Simos

type t

(** How long after a checkpoint-server death the storage plane respawns
    it (the paper's operator restart), 45 s. The respawned server
    discards torn images and, with [replicas >= 2], re-syncs its shard
    from its neighbours before serving. {!Deploy} passes it as
    [respawn]. *)
val respawn_delay : float

(** [spawn engine cluster net ~host ~bandwidth ?jitter ?index
    ?server_hosts ?replicas ?respawn ()] starts a server
    listening on [Config.server_port] at [host]; each transfer's service
    time gets a relative uniform jitter of amplitude [jitter] (default 0).

    [index] is this server's shard (default 0) and [server_hosts] the
    hosts of the whole plane in ring order (default [[| host |]]);
    [replicas >= 2] arms mirroring (default 1: primary only, the
    historical behaviour). [respawn] restarts the server that long after
    its process dies (default: never). Mirror-ack and resync waits give
    up after 20 s. *)
val spawn :
  Engine.t ->
  Cluster.t ->
  Message.t Simnet.Net.t ->
  host:int ->
  bandwidth:float ->
  ?jitter:float ->
  ?index:int ->
  ?server_hosts:int array ->
  ?replicas:int ->
  ?respawn:float ->
  unit ->
  t

(** [committed_wave t ~rank] is the wave of the committed image held for
    [rank], if any (tests/analysis). *)
val committed_wave : t -> rank:int -> int option

(** [committed t ~rank] returns the committed image (tests/analysis). *)
val committed : t -> rank:int -> Message.image option

(** [pending_torn t ~rank] is true while [rank]'s in-progress slot holds
    a torn (prepared but unsealed) image (tests). *)
val pending_torn : t -> rank:int -> bool

(** Images discarded by restart torn-write scans so far. *)
val torn_discarded : t -> int

(** Completed resync pulls performed by restarts of this server. *)
val resyncs : t -> int

(** Times this server was respawned after a death. *)
val respawns : t -> int

(** [inject_kill t] kills every server task on the host, leaving the
    respawn hook armed — the FAIL [halt service ckpt\[i\]] handle. *)
val inject_kill : t -> unit

(** [freeze t] / [unfreeze t] freeze or resume every server task on the
    host — the FAIL [stop]/[continue] service handles. *)
val freeze : t -> unit

val unfreeze : t -> unit

(** [halt t] disarms the respawn hook and kills the server process (used
    at experiment teardown). *)
val halt : t -> unit
