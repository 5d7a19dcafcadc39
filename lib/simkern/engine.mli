(** Discrete-event simulation engine.

    The engine owns the virtual clock, a deterministic event queue and the
    experiment-wide RNG and trace. Events scheduled for the same instant
    execute in scheduling order (the queue is one heap keyed by
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

(** [record ?level t ~source ~event detail] records a trace entry at
    [now t] (see {!Trace.record}). *)
val record : ?level:Trace.level -> t -> source:string -> event:string -> string -> unit

(** [record_lazy ?level t ~source ~event f] records an entry whose
    detail is rendered only if the trace is read (see
    {!Trace.record_lazy}) — use for hot-path events. *)
val record_lazy :
  ?level:Trace.level -> t -> source:string -> event:string -> (unit -> string) -> unit

(** [record_fmt ?level t ~source ~event fmt ...] is {!record} with a
    printf-style detail (see {!Trace.record_fmt}). *)
val record_fmt :
  ?level:Trace.level ->
  t ->
  source:string ->
  event:string ->
  ('a, unit, string, unit) format4 ->
  'a

(** [fresh_pid t] returns a process identifier unique within this engine. *)
val fresh_pid : t -> int

(** [schedule t ?delay f] schedules [f] to run at [now t +. delay]
    (default [0.], i.e. after all previously scheduled events for the
    current instant). Raises [Invalid_argument] on negative delay. *)
val schedule : t -> ?delay:float -> (unit -> unit) -> handle

(** [schedule_at t ~time f] schedules [f] at absolute [time].
    Raises [Invalid_argument] if [time] is in the past. *)
val schedule_at : t -> time:float -> (unit -> unit) -> handle

(** [cancel h] prevents the event from running if it has not run yet.
    Cancelled events become queue tombstones; once they outnumber the
    live half of a non-trivial queue the engine compacts them away, so
    long runs with many cancelled timeouts keep O(log live) push/pop. *)
val cancel : handle -> unit

(** [pending t] is the number of not-yet-executed, not-cancelled
    scheduled events. O(1). *)
val pending : t -> int

(** [queue_size t] is the raw event-queue size, including
    not-yet-compacted tombstones (diagnostics / tests). *)
val queue_size : t -> int

(** [run ?until ?stop_before t] executes events in order until the queue
    is empty, the engine is halted, the next event lies beyond [until]
    (the clock is then advanced to [until]), or the next live event is
    exactly [stop_before] — the breakpoint event is left queued, so the
    caller can {!retime} it, fork the process, or execute it with
    {!run_one}. Returns the reason the loop ended. *)
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
    [time] is in the past. *)
val retime : handle -> time:float -> handle

(** [halt t] stops a [run] in progress after the current event. *)
val halt : t -> unit

(** {2 Snapshot / restore}

    A {!snapshot} captures the engine's own bookkeeping — clock, seq and
    pid counters, RNG state, trace position, and every queued event with
    its capture-time state. {!restore} rebuilds the queue and rewinds the
    scalars. Event thunks are {e shared}, not copied: the engine cannot
    rewind what a closure points at (process continuations, protocol
    state), so restoring inside a live process is only sound when that
    external state is itself back at the capture point — either the
    events are self-contained, or the process was forked at the snapshot
    and the child inherited everything else copy-on-write (the
    explorer's scheme; see docs/EXPLORER.md). *)

type snapshot

(** [snapshot t] captures the engine state (O(queued events)). *)
val snapshot : t -> snapshot

(** [restore t s] rewinds [t] to [s]. May be applied any number of
    times; the snapshot is not consumed. *)
val restore : t -> snapshot -> unit

(** [snapshot_events s] is the number of queued events captured. *)
val snapshot_events : snapshot -> int

(** [snapshot_words s] is the heap footprint of the snapshot in words,
    including what the captured events' closures reach (bench
    diagnostics). *)
val snapshot_words : snapshot -> int
