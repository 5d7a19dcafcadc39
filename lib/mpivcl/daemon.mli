(** Plumbing shared by the rank daemons of every backend: {!Vdaemon},
    {!V2_daemon}, [Mpirep.Replica] and [Mpiulfm.Udaemon].

    Every daemon starts the same way, which is what lets the five backends
    be compared under identical failures: it registers its whole MPI task
    (computation processes, helper processes and the daemon itself) with
    the FAIL-MPI daemon of its machine, waits out its start-up jitter,
    exchanges arguments with its dispatcher and crosses the
    [localMPI_setCommand] breakpoint, the injection point of the paper's
    Figure 10. It then forwards each connection into one event mailbox
    with {!Simnet.Net.forward} and accepts peer connections on a helper
    process. The two checkpointing daemons also share the restore
    failover ladder and the storage link.

    Only the protocol logic stays in the daemons. *)

open Simkern
open Simos

(** {2 Fixed timings}

    Simulated seconds, calibrated like {!Config.default}. *)

(** Daemon-side setup after an image is loaded. *)
val restart_settle : float

(** {2 Start-up} *)

(** [register fci ~host ~name ~main ~children] registers the daemon's MPI
    task as the FAIL-MPI target of machine [host] (no-op without [fci]),
    built by {!Fci.Control.of_procs}: a fault acts on [children] first and
    on [main], the daemon, last. Returns the task's program variables,
    which the injector can read. *)
val register :
  Fci.Runtime.t option ->
  host:int ->
  name:string ->
  main:Proc.t ->
  children:((Proc.t -> unit) -> unit) ->
  Fci.Control.vars

(** [startup_delay cfg rng] sleeps the daemon's start-up time, uniform in
    [\[init_delay_min, init_delay_max\]]: the window in which a fault kills
    a daemon the dispatcher has not seen yet. *)
val startup_delay : Config.t -> Rng.t -> unit

(** [handshake fci ~host] sleeps the handshake delay, then crosses the
    [localMPI_setCommand] breakpoint of machine [host]. *)
val handshake : Fci.Runtime.t option -> host:int -> unit

(** {2 Connections} *)

(** [accept cluster ~host ~name listener classify events] spawns
    [name ^ "-accept"] on [host], which accepts connections on [listener]
    until it closes. The first message [m] of each connection [c] decides
    its fate: [classify c m = Some ev] posts [ev] to [events], [None]
    closes [c]. *)
val accept :
  Cluster.t ->
  host:int ->
  name:string ->
  'm Simnet.Net.listener ->
  ('m Simnet.Net.conn -> 'm -> 'ev option) ->
  'ev Mailbox.t ->
  Proc.t

(** {2 The computation process} *)

(** What the computation process asks of its daemon. *)
type app_request =
  | A_send of Message.app_msg
  | A_recv of { src : int; tag : int; reply : int Proc.slot }
      (** [reply] is the context's one slot, in which the process awaits
          the answer; a receive allocates no reply handle of its own *)
  | A_commit of int array  (** a copy of the state at the commit *)
  | A_finalize

(** [app_ctx rng ~rank ~size ~state ~set_app_var post] is the context of
    one computation process, which hands every request to [post]. It
    draws the salt of its [noise] from [rng] when built. *)
val app_ctx :
  Rng.t ->
  rank:int ->
  size:int ->
  state:int array ->
  set_app_var:(string -> int -> unit) ->
  (app_request -> unit) ->
  App.ctx

(** [deliver matching ~redelivery m] matches a message arriving for the
    computation process. When it answers a parked receive, [m] is pushed
    on [redelivery], the messages consumed since the last commit, which a
    restart from that commit delivers again. *)
val deliver :
  int Proc.slot Matching.t -> redelivery:Message.app_msg list ref -> Message.app_msg -> unit

(** [serve matching ~redelivery ~dst ~src ~tag reply] matches a receive
    the computation process posts, recording a consumed message in
    [redelivery] as {!deliver} does. *)
val serve :
  int Proc.slot Matching.t ->
  redelivery:Message.app_msg list ref ->
  dst:int ->
  src:int ->
  tag:int ->
  int Proc.slot ->
  unit

(** {2 Checkpoint storage}

    The rank's storage replicas are {!Env.storage_hosts}: its primary
    server, then its mirror when storage is replicated. *)

(** [restore env ~source ~host ~rank ~incarnation] fetches the rank's last
    committed image. Incarnation 0 starts fresh without asking. Otherwise
    the fetch walks the failover ladder: each replica in turn, with
    a fixed number of attempts and exponential backoff. A live server that
    holds nothing is an authoritative fresh start ([`Image None]).
    [`Lost] means no replica was reachable. A failover is traced
    [fetch-failover] under [source]. *)
val restore :
  Env.t ->
  source:string ->
  host:int ->
  rank:int ->
  incarnation:int ->
  [ `Image of Message.image option | `Lost ]

(** The daemon's link to checkpoint storage. *)
type storage

(** [storage env ~source ~host ~rank wrap events] connects to the rank's
    primary server; reconnections are traced under [source]. Each link
    it opens is forwarded to [events] through [wrap]. *)
val storage :
  Env.t ->
  source:string ->
  host:int ->
  rank:int ->
  (Message.t option -> 'ev) ->
  'ev Mailbox.t ->
  storage

(** [storage_link s] is the current link, possibly closed, if any. *)
val storage_link : storage -> Message.t Simnet.Net.conn option

(** [ensure_storage s] is the current link if it is open. Otherwise it
    reconnects along the ladder, to the primary if it came back, else to
    the mirror (traced [server-reconnect]), so later stores keep landing
    on storage. [None]: no replica accepted. *)
val ensure_storage : storage -> Message.t Simnet.Net.conn option
