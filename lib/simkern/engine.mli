(** Discrete-event simulation engine.

    The engine owns the virtual clock, a deterministic event queue and the
    experiment-wide RNG and trace. Events queued for the same instant
    execute in queueing order (every event is keyed by
    [(time, sequence)]), so a run is a pure function of the seed. *)

type t

(** Cancellable handle on a scheduled event. *)
type handle

(** [create ?seed ?trace_level ()] returns a fresh engine with its
    clock at [0.]. [trace_level] gates what the engine trace records
    (default {!Trace.Full}); campaigns that only read aggregates run at
    {!Trace.Summary} to skip per-message chatter. *)
val create : ?seed:int64 -> ?trace_level:Trace.level -> unit -> t

(** [now t] is the current simulated time, in seconds. *)
val now : t -> float

(** [rng t] is the engine RNG. Components needing an independent stream
    should [Rng.split] it once at setup. *)
val rng : t -> Rng.t

(** [trace t] is the engine-wide execution trace. *)
val trace : t -> Trace.t

(** [record ?level t ~source ~event fmt ...] records a trace entry at
    [now t] with a printf-style detail (see {!Trace.record}); a gated-out
    entry is never formatted. *)
val record :
  ?level:Trace.level ->
  t ->
  source:string ->
  event:string ->
  ('a, unit, string, unit) format4 ->
  'a

(** [fresh_pid t] returns a process identifier unique within this engine. *)
val fresh_pid : t -> int

(** {2 Scheduling}

    Two ways to queue an event, on one [(time, sequence)] order: events
    queued either way at the same instant run in the order they were
    queued.
    - {!post} / {!post_at} return nothing and allocate nothing beyond
      the thunk: the thunk goes straight into the queue. Use them
      whenever the caller never touches the event again — message
      arrivals, process resumptions, fire-and-forget timers. An event
      posted with no delay joins a FIFO of the current instant, which
      costs O(1) instead of a heap push and pop.
    - {!schedule} returns a {!handle}, at the cost of one record per
      event. Use it only when the caller keeps the handle, to {!cancel} or {!retime} the event or to pause before it
      ([run ~stop_before]).

    Every entry point raises [Invalid_argument] on a NaN delay or time
    (["Engine.post: delay is NaN"], ["Engine.post_at: time is NaN"],
    and so on), on a negative delay, and on a time in the past. *)

(** [post t ?delay f] queues [f] to run at [now t +. delay] (default
    [0.], i.e. after all previously queued events for the current
    instant). *)
val post : t -> ?delay:float -> (unit -> unit) -> unit

(** [post_at t ~time f] queues [f] at absolute [time]. *)
val post_at : t -> time:float -> (unit -> unit) -> unit

(** [schedule t ?delay f] is {!post} returning a handle on the event. *)
val schedule : t -> ?delay:float -> (unit -> unit) -> handle

(** [cancel h] prevents the event from running if it has not run yet.
    Cancelled events become queue tombstones; once they outnumber the
    live half of a non-trivial queue the engine compacts them away, so
    long runs with many cancelled timeouts keep O(log live) push/pop. *)
val cancel : handle -> unit

(** [pending t] is the number of not-yet-executed, not-cancelled
    events: {!queue_size} less the tombstones. O(1). *)
val pending : t -> int

(** [queue_size t] is the raw event-queue size, including
    not-yet-compacted tombstones (diagnostics: the explorer's
    [~measure] reads it at each pause). *)
val queue_size : t -> int

(** [run ?until ?stop_before t] executes events in order until the queue
    is empty, the engine is halted, the next event lies beyond [until]
    (the clock is then advanced to [until]), or the next live event is
    exactly [stop_before] — the breakpoint event is left queued, so the
    caller can {!retime} it or execute it with {!run_one}. Returns the
    reason the loop ended. *)
val run :
  ?until:float ->
  ?stop_before:handle ->
  t ->
  [ `Quiescent | `Halted | `Deadline | `Breakpoint ]

(** [run_one t] pops and executes exactly the next live event (skipping
    tombstones), advancing the clock to it. Returns [false] on an empty
    queue. Ignores [halt] and deadlines — it is the explorer's precise
    "step over the breakpoint" primitive. *)
val run_one : t -> bool

(** [retime h ~time] moves a pending event to [time], {e reusing its
    sequence number}: the moved event occupies exactly the ordering slot
    it would have had if originally scheduled at [time], so same-instant
    ties still break identically to a from-scratch run — the property
    the explorer's fork scheduler needs when it re-aims a scenario timer
    at a sibling plan's injection delay. Returns the replacement handle
    (or [h] itself when [time] is unchanged); the old handle becomes a
    tombstone. Raises [Invalid_argument] if [h] is no longer pending or
    [time] is NaN or in the past. *)
val retime : handle -> time:float -> handle

(** [halt t] stops a [run] in progress after the current event. *)
val halt : t -> unit
