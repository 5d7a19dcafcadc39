(** Simulated TCP-like network.

    A ['a t] is an overlay network whose connections all carry messages of
    type ['a]. Hosts are plain integers (assigned by {!Simos.Cluster});
    connections between distinct hosts pay the network latency and
    bandwidth, while same-host connections (the paper's Unix sockets
    between an MPI process and its daemon) pay the much smaller local
    cost.

    Failure semantics follow the paper's §3 setup: a connection endpoint is
    owned by the process that opened it, and when that process dies — for
    any reason, including a FAIL-MPI [halt] — the peer observes the closure
    on its next receive. "A failure is assumed after any unexpected socket
    closure"; detection is immediate because experiments kill tasks, not
    operating systems.

    {!Perturb} relaxes the perfect-network assumption: per-link loss,
    added latency and jitter, bidirectional partitions between host sets
    with heal — all deterministic functions of the run seed. While the network is perturbed, inter-host connections switch to
    a reliable transport (sequence numbers, cumulative acks, bounded
    exponential-backoff retransmission) so degraded links behave like slow
    TCP rather than UDP; a connection that exhausts its retransmission
    budget is torn down like ETIMEDOUT and both ends eventually observe
    [Closed]. A network that is never perturbed takes the historical fast
    path, byte-identical to the pre-perturbation simulator. *)

open Simkern

type 'a t

(** One-way propagation delay between distinct hosts: 100 us, as on
    GigE. *)
val latency : float

(** Bytes per second between distinct hosts: 100 MB/s. *)
val bandwidth : float

(** Network perturbation: deterministic link faults drawn from the run
    seed. All state lives inside the owning network (and therefore inside
    one run's engine), so campaigns stay reproducible at any [--jobs]. *)
module Perturb : sig
  (** Degradation of a link: [loss] is the per-message drop probability in
      [\[0, 1\]], [latency] an added one-way delay in seconds, [jitter] a
      uniform extra delay in [\[0, jitter)]. Arrivals remain FIFO per
      direction. [Closed] markers survive random loss (a kernel reset gets
      through a lossy link) but not an active partition. *)
  type spec = { loss : float; latency : float; jitter : float }

  val zero : spec

  (** A launch-time perturbation profile ([failmpi_run --net-*]): [base]
      degrades every inter-host link, [partition] opens a bidirectional
      cut between two host sets, [heal_at] schedules {!heal}, and [seed]
      overrides the lazily split perturbation RNG. Once any rule is
      installed the retransmitting transport is armed, with an initial
      retransmission timeout of 0.25 s doubled up to 4 s, and at most 8
      attempts. *)
  type profile = {
    base : spec;
    partition : (int list * int list) option;
    heal_at : float option;
    seed : int64 option;
  }

  (** No degradation, no partition, no heal, no seed. *)
  val default_profile : profile

  (** Raise [Invalid_argument] on parameters outside their domain (loss
      outside [\[0,1\]], negative delays). *)
  val check_spec : ?what:string -> spec -> unit

  (** [check_profile p] also rejects empty partition sides and a NaN or
      negative [heal_at]. *)
  val check_profile : profile -> unit

  (** [backoff ~rto_initial ~rto_max ~attempt] is the retransmission delay
      before attempt [attempt] (0-based): [rto_initial * 2^attempt] capped
      at [rto_max]. Pure; unit-tested by the backoff-schedule tests. *)
  val backoff : rto_initial:float -> rto_max:float -> attempt:int -> float

  type t

  type stats = {
    dropped : int;  (** messages dropped by loss or an active cut *)
    delayed : int;  (** messages delivered with added latency/jitter *)
    retransmits : int;  (** wire messages re-sent by the reliable transport *)
    conn_timeouts : int;  (** connections torn down after exhausting retries *)
  }

  (** [touched t] is true once any rule was ever installed — the gate for
      every perturbation code path. A never-touched network is
      byte-identical to the historical simulator. *)
  val touched : t -> bool

  val stats : t -> stats

  (** [sample t ~src ~dst ~kind] draws the fate of one wire message on
      the [src -> dst] link: [`Deliver extra] adds [extra] seconds of
      latency/jitter, [`Drop] loses it (and counts it in {!stats}).
      Same-host traffic always delivers. [`Closed] markers ride through
      random loss but not an active cut. Used by the FCI control plane
      to subject its own messages to the same fabric as the
      application's. *)
  val sample :
    t ->
    src:int ->
    dst:int ->
    kind:[ `Data | `Closed ] ->
    [ `Deliver of float | `Drop ]

  (** [cut t ~src ~dst] is true when the [src -> dst] link is currently
      severed by a partition or an isolation. A host listed
      on both sides of a partition cuts against both sides; same-host
      links are never cut. O(active cuts), O(1) per membership probe. *)
  val cut : t -> src:int -> dst:int -> bool

  (** [spec_for t ~src ~dst] is the effective degradation of one link:
      the base spec combined with the [src]- and [dst]-host entries by
      per-field max. O(1). *)
  val spec_for : t -> src:int -> dst:int -> spec

  (** [apply t profile] installs a launch-time profile: seed, base
      degradation, partition and scheduled heal. *)
  val apply : t -> profile -> unit

  (** [degrade t ~hosts spec] degrades every link touching one of
      [hosts]; the worse of base/endpoint specs applies per link. *)
  val degrade : t -> hosts:int list -> spec -> unit

  (** [partition t a b] drops everything crossing the cut between host
      sets [a] and [b], both directions, and refuses new connections.
      Raises [Invalid_argument] when either side is empty: an empty
      side can never match yet would still flip {!touched}, silently
      arming the reliable transport with no fault present. *)
  val partition : t -> int list -> int list -> unit

  (** [isolate t hosts] partitions [hosts] from every other host.
      Raises [Invalid_argument] on an empty [hosts] (see {!partition}). *)
  val isolate : t -> int list -> unit

  (** [cut_pairs t pairs] drops everything between the exact host pairs
      listed (unordered, both directions) — the primitive a topology
      component failure compiles to: killing a switch cuts every host
      pair whose deterministic route crosses it, which is not a
      bipartition.  O(1) per message regardless of pair count.  Raises
      [Invalid_argument] on an empty pair list. *)
  val cut_pairs : t -> (int * int) list -> unit

  (** [degrade_pairs t ~pairs spec] degrades exactly the listed host
      pairs (e.g. every intra-pod link of a fat tree); the worse of
      base/endpoint/pair specs applies per message.  Raises
      [Invalid_argument] on an empty pair list. *)
  val degrade_pairs : t -> pairs:(int * int) list -> spec -> unit

  (** [heal t] removes every rule (partitions, degradations).
      The reliable transport stays armed so in-flight retransmissions
      drain over the healed links. *)
  val heal : t -> unit
end

(** [create eng ()] builds a network. *)
val create : Engine.t -> unit -> 'a t

val engine : 'a t -> Engine.t

(** [perturb net] is the network's perturbation layer (dormant until a
    rule is installed). *)
val perturb : 'a t -> Perturb.t

type 'a listener
type 'a conn

(** Result of a receive. [`Closed] means the peer endpoint was closed or
    its owner process died. *)
type 'a recv_result = Data of 'a | Closed

(** [listen net ~host ~port] binds a listener. Raises [Invalid_argument]
    if the address is already bound. *)
val listen : 'a t -> host:int -> port:int -> 'a listener

(** [accept l] blocks the calling process until a connection arrives; the
    calling process becomes the owner of the returned endpoint. Returns
    [None] if the listener is closed while waiting. *)
val accept : 'a listener -> 'a conn option

val close_listener : 'a listener -> unit

(** [connect net ~host ~to_host ~to_port] opens a connection from [host].
    Blocks the calling process for the handshake round-trip; the caller
    becomes the owner of the returned endpoint. [Error `Refused] if no
    listener is bound — or, on a perturbed network, if the handshake was
    lost or the hosts are partitioned. *)
val connect : 'a t -> host:int -> to_host:int -> to_port:int -> ('a conn, [ `Refused ]) result

(** [send conn ?size v] queues [v] for delivery ([size] in bytes, default
    [64], determines transmission time). Returns [false] if the connection
    is already closed locally or by the peer (the message is dropped, like
    a write on a reset socket). *)
val send : 'a conn -> ?size:int -> 'a -> bool

(** [recv conn] blocks until a message or the closure marker arrives. *)
val recv : 'a conn -> 'a recv_result

(** [recv_timeout conn ~timeout] like {!recv} with an expiry; [None] on
    timeout. *)
val recv_timeout : 'a conn -> timeout:float -> 'a recv_result option

(** [close conn] closes the local endpoint; the peer observes [Closed]
    after the propagation delay. Idempotent. *)
val close : 'a conn -> unit

(** [is_open conn] is false once the local endpoint is closed or the peer's
    closure has been observed. *)
val is_open : 'a conn -> bool

(** [forward ?owner conn f] hands each message [m] of [conn] to [f] as
    [f (Some m)] in arrival order, then [f None] once the connection is
    closed, locally or by the peer, and nothing after that. It behaves
    as a process looping on {!recv} would, without a process:
    - an arrival that finds the forwarder idle posts one flush at the
      current instant, where that process would have resumed; the
      flush hands over the message and everything queued behind it.
      [forward] posts the first flush itself. A local {!close} while
      idle ends it at the next flush, even if messages arrive between;
    - with [owner], flushes run under {!Simkern.Proc.guard}: held, with
      the messages left on [conn], while [owner] is frozen, and dropped
      once it has exited.
    [conn] must have no other reader. Raises [Invalid_argument] if
    [conn] is already forwarded. *)
val forward : ?owner:Proc.t -> 'a conn -> ('a option -> unit) -> unit
