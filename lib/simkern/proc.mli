(** Simulated processes.

    A process is an OCaml 5 fiber driven by the engine's event loop. Inside
    a process, blocking operations ([sleep], [suspend], and everything in
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

type state =
  | Embryo  (** spawned, first step not yet executed *)
  | Running  (** executing or scheduled to resume *)
  | Waiting  (** blocked on a suspension *)
  | Exited of exit_reason

val pp_exit_reason : Format.formatter -> exit_reason -> unit
val pp_state : Format.formatter -> state -> unit

(** [spawn engine ?name body] creates a process whose first step runs
    at the current instant (after already-scheduled events). *)
val spawn : Engine.t -> ?name:string -> (unit -> unit) -> t

val pid : t -> int
val name : t -> string
val engine : t -> Engine.t
val state : t -> state

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

(** [on_exit p hook] registers [hook], called once with the exit reason
    when [p] exits. Hooks run in the scheduler context and must not block;
    if [p] has already exited the hook is called immediately. *)
val on_exit : t -> (exit_reason -> unit) -> unit

(** {2 Operations usable only inside a process} *)

(** [self ()] is the current process. *)
val self : unit -> t

(** [sleep dt] blocks for [dt] simulated seconds. *)
val sleep : float -> unit

(** [yield ()] reschedules the current process behind pending same-instant
    events. *)
val yield : unit -> unit

(** [suspend register] blocks until the waker passed to [register] is
    invoked with a value. The waker returns [true] iff the value was
    accepted (a process killed or already woken rejects it), letting
    callers re-route a rejected value. The waker may be invoked from any
    context, at most one acceptance occurs. *)
val suspend : (('a -> bool) -> unit) -> 'a

(** [join p] blocks until [p] exits and returns its exit reason. Returns
    immediately if [p] already exited. *)
val join : t -> exit_reason
