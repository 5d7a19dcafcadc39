(** Simulated processes.

    A process is an OCaml 5 fiber driven by the engine's event loop. Inside
    a process, blocking operations ([sleep], [suspend], [await], and everything in
    {!Mailbox} / {!Ivar}) are implemented with effects, so process code is
    written in direct style — exactly like the MPI programs and daemons it
    models.

    Control operations mirror what the FCI daemons of the paper perform on
    the application under test through a debugger:
    - [kill] is the [halt] fault action: the fiber is discontinued with
      {!Killed}, so [Fun.protect] finalizers run and the process exits with
      reason [Killed] (an {e abnormal} exit, triggering [onerror]);
    - [freeze] / [unfreeze] are [stop] / [continue]: a frozen process stops
      advancing at its next suspension point and buffers wake-ups until it
      is unfrozen.

    Scheduling model: a process runs atomically between suspension points;
    wake-ups are delivered as engine events at the current instant, in
    deterministic order. *)

type t

(** Raised inside a fiber being killed. Do not catch it without
    re-raising. *)
exception Killed

type exit_reason =
  | Exit_normal  (** the body returned *)
  | Exit_killed  (** the process was [kill]ed *)
  | Exit_crashed of exn  (** the body raised *)

(** [spawn engine ?name body] creates a process whose first step runs
    at the current instant (after already-scheduled events). *)
val spawn : Engine.t -> ?name:string -> (unit -> unit) -> t

val pid : t -> int
val name : t -> string

(** [is_alive p] is true unless [p] has exited. *)
val is_alive : t -> bool

val is_frozen : t -> bool

(** [kill p] terminates [p] (idempotent). If [p] is blocked, its fiber is
    discontinued immediately (at the current instant); if it is running,
    it dies at its next suspension point. *)
val kill : t -> unit

(** [freeze p] suspends progress of [p] (idempotent), like [SIGSTOP]. *)
val freeze : t -> unit

(** [unfreeze p] resumes a frozen process; buffered wake-ups are delivered
    in order. *)
val unfreeze : t -> unit

(** [guard p f] runs [f] now on behalf of [p], without resuming [p]:
    while [p] is frozen, [f] is buffered with [p]'s own wake-ups and runs
    when [p] is unfrozen; once [p] has exited, [f] is dropped. A killed
    process that has not exited yet still runs [f]. *)
val guard : t -> (unit -> unit) -> unit

(** [on_exit p hook] registers [hook], called once with the exit reason
    when [p] exits. Hooks run in the scheduler context and must not block;
    if [p] has already exited the hook is called immediately. *)
val on_exit : t -> (exit_reason -> unit) -> unit

(** {2 Operations usable only inside a process} *)

(** [self ()] is the current process. *)
val self : unit -> t

(** [sleep dt] blocks for [dt] simulated seconds. Raises
    [Invalid_argument] if [dt] is NaN or negative. *)
val sleep : float -> unit

(** [yield ()] reschedules the current process behind pending same-instant
    events. *)
val yield : unit -> unit

(** [suspend register] blocks until the waker passed to [register] is
    invoked with a value. The waker may be invoked from any context and
    returns [true] at most once, for the value that wakes the process;
    it returns [false] once stale (the process was woken or killed, or
    has suspended again since), letting callers re-route the value. A
    kill between a wake-up and the resume it posts takes effect at the
    process's next suspension. Each suspension allocates its waker; a
    wait with one source uses a {!slot} instead. Callers are the waits
    with several readers or a timer: {!Ivar.read}, [Simnet.Net.recv] and
    [Simnet.Net.recv_timeout]. *)
val suspend : (('a -> bool) -> unit) -> 'a

(** {2 Wait slots}

    A slot is a wait point that its owner allocates once and reuses for
    every wait, so that a wait allocates only the runtime's continuation.
    Each {!Mailbox} waits in one, which is why a mailbox has a single
    reader. At most one process waits in a slot at a time; {!fill} plays the
    waker's part for whichever wait the slot holds. *)

type 'a slot

(** [slot ()] is a fresh slot with no waiter. May be called anywhere. *)
val slot : unit -> 'a slot

(** [await s] blocks the calling process in [s] until [fill s v], and
    returns [v]. Kill, freeze and doom act as on {!suspend}. The caller
    must ensure that no other process is waiting in [s] ({!awaited}). *)
val await : 'a slot -> 'a

(** [awaited s] is true while a process is blocked in [s], not yet
    filled. *)
val awaited : 'a slot -> bool

(** [fill s v] wakes the process blocked in [s] with [v], exactly as a
    waker would, and returns [true]; it returns [false] when no process
    is blocked in [s] (the last waiter was filled, killed or has exited),
    and [v] is then the caller's to re-route. May be called from any
    context. *)
val fill : 'a slot -> 'a -> bool
