(** Plumbing shared by the dispatchers of every backend: {!Dispatcher},
    [Mpirep.Rdispatcher] and [Mpiulfm.Udispatcher], and by their
    deployments.

    Every family builds its fabric, launches its daemons over ssh and
    learns of their registration and failure the same way, which is what
    lets the five backends be compared under identical failures. Only the
    protocol logic stays in the dispatchers: state machines, recovery,
    failover, shrink reports and verdict flags. *)

open Simkern
open Simos

(** How a run ends, as its dispatcher sees it. *)
type outcome =
  | Completed of float  (** the application finalized at this time *)
  | Aborted of string  (** the run cannot go on, for this reason *)

(** [fabric eng ?fci cfg base] creates the cluster and network of layout
    [base], applies [cfg.net] to the network before any process starts,
    and hands the network and [cfg.topology], validated against the
    compute pool, to the FCI control plane. *)
val fabric :
  Engine.t -> ?fci:Fci.Runtime.t -> Config.t -> Layout.t -> Cluster.t * 'm Simnet.Net.t

(** [serve cluster ~host ~name net ~hello ~registered ~msg ~closed events
    ~start handle] spawns the dispatcher process [name] on [host]. It
    listens on {!Config.dispatcher_port} and spawns [name ^ "-accept"],
    which accepts connections and forwards each one
    ({!Simnet.Net.forward}) on its own behalf, so a stopped or halted
    dispatcher host holds or drops them. The first message [m] of a
    connection [c] decides its fate: [hello m = Some k] posts
    [registered k c] to [events], then [msg k m'] for every later
    message and [closed k] once [c] closes; [None] closes [c]. The
    dispatcher process then runs [start ()], the initial launch, and
    hands every event of [events] to [handle], forever. *)
val serve :
  Cluster.t ->
  host:int ->
  name:string ->
  'm Simnet.Net.t ->
  hello:('m -> 'k option) ->
  registered:('k -> 'm Simnet.Net.conn -> 'ev) ->
  msg:('k -> 'm -> 'ev) ->
  closed:('k -> 'ev) ->
  'ev Mailbox.t ->
  start:(unit -> unit) ->
  ('ev -> unit) ->
  unit

(** [ssh cluster ~host ~name cfg ~inc daemon died events] spawns [name]
    on [host], which sleeps [cfg.relaunch_delay] if [inc > 0], then
    [cfg.ssh_delay], then starts [daemon ()] and posts [died] to [events]
    when that daemon exits. *)
val ssh :
  Cluster.t ->
  host:int ->
  name:string ->
  Config.t ->
  inc:int ->
  (unit -> Proc.t) ->
  'ev ->
  'ev Mailbox.t ->
  unit
