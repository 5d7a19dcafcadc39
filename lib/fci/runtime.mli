(** FAIL-MPI runtime: deploys compiled scenarios and drives the daemons.

    One daemon {e instance} is created per deployment entry — a singleton
    ([P1 : ADV1 on machine 53;]) or one per group member
    ([G1\[53\] : ADV2 on machines 0 .. 52;], instance [G1\[i\]] on machine
    [i]). Instances interpret their automaton reactively: messages from
    other instances (delivered with the control-plane latency), node
    timers, and the lifecycle of registered application processes.

    The application side is the paper's §4 integration scheme for
    self-deploying applications: instead of being launched by the
    injection middleware, a process {!register}s itself with the FAIL-MPI
    daemon of its machine (or is {!attach}ed by pid). A machine without a
    deployed instance gets no fault injection. *)

open Simkern

type t

(** [create engine ?msg_latency plan] deploys every instance of the plan.
    [msg_latency] is the one-way latency of daemon-to-daemon control
    messages, daemon processing included (default 0.11 s: the injection
    control plane runs through debugger-instrumented daemons and is much
    slower than the data plane). Raises [Invalid_argument] if the plan
    deploys two instances on the same machine (one FAIL-MPI daemon per
    machine, as in the paper). *)
val create : Engine.t -> ?msg_latency:float -> Fail_lang.Compile.plan -> t

val engine : t -> Engine.t

(** {2 Application integration} *)

(** [register t ~machine target] declares that an application process
    started on [machine]; triggers [onload] on that machine's instance.
    The instance takes [target] as its controlled process until it exits.
    No-op if the machine has no instance. *)
val register : t -> machine:int -> Control.target -> unit

(** [attach t ~machine proc] is {!register} with a bare process (the
    attach-to-running-pid feature). *)
val attach : t -> machine:int -> Proc.t -> unit

(** [register_service t ~name ~kill ~freeze ~unfreeze] declares an
    infrastructure service (checkpoint server ["ckpt\[i\]"], checkpoint
    scheduler ["sched"], dispatcher ["disp"]) that scenario
    [halt service ...] / [stop service ...] / [continue service ...]
    actions act on. A scenario naming an unregistered service traces
    [halt-no-service] (etc.) and does nothing. Re-registering a name
    replaces the handles. *)
val register_service :
  t ->
  name:string ->
  kill:(unit -> unit) ->
  freeze:(unit -> unit) ->
  unfreeze:(unit -> unit) ->
  unit

(** [breakpoint t ~machine kind fn] must be called from inside a
    registered application process when it reaches function [fn]. If the
    controlling instance has a matching [before(fn)]/[after(fn)]
    transition, its actions run before this returns — the call never
    returns if the scenario halts the process, and blocks while it is
    stopped. *)
val breakpoint : t -> machine:int -> [ `Before | `After ] -> string -> unit

(** {2 Introspection (tests, trace analysis)} *)

type instance

val instances : t -> instance list
val find_instance : t -> string -> instance option
val instance_machine : instance -> int

(** [instance_node i] is the source id of the instance's current node. *)
val instance_node : instance -> string

val controlled : instance -> Control.target option

(** [read_var t ~instance name] reads a daemon variable by name (tests). *)
val read_var : t -> instance:string -> string -> int option

(** [injected_faults t] counts [halt] actions executed so far. *)
val injected_faults : t -> int

(** {2 Fork-point surgery}

    Primitives for the explorer's prefix-sharing scheduler, used at a
    pause just before a scenario timer fires. Both leave timer
    generations, variables and the rest of the run untouched — a forked
    branch stays byte-identical to replaying its plan from t=0. *)

(** [retime_timer t ~instance ~time] re-aims the instance's armed timer
    at absolute [time], preserving its engine sequence number (see
    {!Simkern.Engine.retime}) so same-instant ties break as a
    from-scratch run's would. Returns the replacement handle. Raises
    [Invalid_argument] on an unknown instance or an unarmed timer. *)
val retime_timer : t -> instance:string -> time:float -> Simkern.Engine.handle

(** [swap_plan t plan] re-points every deployed instance at [plan]'s
    automaton for its daemon, re-locating the current node by name. The
    new plan must deploy the same instances with the same variable
    layouts and contain every currently occupied node (guaranteed when
    both plans share the executed fault prefix). Raises
    [Invalid_argument] otherwise. *)
val swap_plan : t -> Fail_lang.Compile.plan -> unit

(** [net_faults t] counts [partition]/[degrade] actions executed so far
    ([heal] is not a fault). *)
val net_faults : t -> int

(** [suspected t] lists the ids of currently quarantined instances. *)
val suspected : t -> string list

(** {2 Network fabric} *)

(** [set_fabric t perturb] subjects the control plane to the simulated
    network's perturbation layer: scenario [partition]/[degrade]/[heal]
    actions act on it, inter-machine daemon messages are sampled against
    it (with sequence numbers, ack-cancelled exponential-backoff
    retransmission from 0.5 s up to 8 s, at most 6 times, and
    receiver-side dedup), and a heartbeat monitor probing every 2 s
    suspects — quarantines — daemons whose probes miss for 10 s. With no fabric attached, or an untouched one,
    message delivery is byte-identical to the historical runtime. *)
val set_fabric : t -> Simnet.Net.Perturb.t -> unit

(** [set_topology t topo] attaches the fabric's geometry so scenario
    topology destinations ([switch agg\[2\]], [pod 1], [rack 3]) resolve
    to components of [topo]. Killing a component isolates its severed
    hosts and cuts every surviving host pair whose deterministic route
    crossed it; degrading one applies the spec to the pairs riding it.
    Without a topology attached, topology destinations trace
    [net-no-topology] and do nothing. Attaching one adds no RNG draws
    and never perturbs an unperturbed run. *)
val set_topology : t -> Simtopo.Topo.t -> unit

(** [shutdown t] cancels every outstanding control-plane event — node
    timers, armed retransmissions, the heartbeat monitor — so a finished
    run drains the engine queue. Idempotent; further sends become
    no-ops. *)
val shutdown : t -> unit
