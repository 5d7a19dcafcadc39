(** Simulated cluster: a set of hosts and the tasks running on them.

    Mirrors the paper's Grid Explorer setup: an experiment devotes more
    machines than application processes (e.g. 53 hosts for BT-49) so that
    spare processors are always available after failures. Host identifiers
    double as network addresses in {!Simnet.Net}.

    Task tracking is flat state: slots in preallocated parallel arrays
    recycled through a free-list, with an intrusive per-host list over
    the slots. Spawn and exit bookkeeping are O(1), and {!tasks} /
    {!kill_all} walk only the tasks of one host — the invariants that
    keep a 10k–100k-host cluster cheap. *)

open Simkern

type t

(** [create engine ~size] builds a cluster of [size] hosts with ids
    [0 .. size-1]. *)
val create : Engine.t -> size:int -> t

val size : t -> int

(** [spawn_on t ~host ?name body] starts a task on [host], named
    ["task@node%03d"] after the host by default. The task is tracked in
    the host's slot list until it exits. [spawn_on], [tasks] and
    [kill_all] raise [Invalid_argument] on an unknown host. *)
val spawn_on : t -> host:int -> ?name:string -> (unit -> unit) -> Proc.t

(** [tasks t ~host] returns the live tasks on [host], most recent
    first. O(tasks-on-host). *)
val tasks : t -> host:int -> Proc.t list

(** [kill_all t ~host] kills every live task on [host], most recent
    first. O(tasks-on-host). *)
val kill_all : t -> host:int -> unit
