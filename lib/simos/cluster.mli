(** Simulated cluster: a set of hosts and the tasks running on them.

    Mirrors the paper's Grid Explorer setup: an experiment devotes more
    machines than application processes (e.g. 53 hosts for BT-49) so that
    spare processors are always available after failures. Host identifiers
    double as network addresses in {!Simnet.Net}.

    Task tracking is flat state: slots in preallocated parallel arrays
    recycled through a free-list, with an intrusive per-host list over
    the slots. Spawn and exit bookkeeping are O(1), {!task_count} and
    {!live_task_count} are O(1) counters, and {!kill_all} / {!find_task}
    walk only the tasks of one host — the invariants that keep a
    10k–100k-host cluster cheap. *)

open Simkern

type t

type host = {
  host_id : int;
  host_name : string;
  mutable head_slot : int;  (** head of the host's slot list (internal) *)
  mutable task_count : int;  (** live tasks on this host, maintained on spawn/exit *)
}

(** [create engine ~size] builds a cluster of [size] hosts with ids
    [0 .. size-1]. *)
val create : Engine.t -> size:int -> t

val engine : t -> Engine.t
val size : t -> int

(** [host t id] returns the host record. Raises [Invalid_argument] on an
    unknown id. *)
val host : t -> int -> host

val hosts : t -> host list

(** [spawn_on t ~host ?name body] starts a task on [host]. The task is
    tracked in the host's slot list until it exits. *)
val spawn_on : t -> host:int -> ?name:string -> (unit -> unit) -> Proc.t

(** [tasks t ~host] returns the live tasks on [host], most recent
    first. O(tasks-on-host). *)
val tasks : t -> host:int -> Proc.t list

(** [find_task t ~host ~name] returns the most recently spawned live task
    with the given name. O(tasks-on-host). *)
val find_task : t -> host:int -> name:string -> Proc.t option

(** [kill_all t ~host] kills every live task on [host], most recent
    first. O(tasks-on-host). *)
val kill_all : t -> host:int -> unit

(** [task_count t ~host] is the number of live tasks on [host]. O(1). *)
val task_count : t -> host:int -> int

(** [live_task_count t] is the total number of live tasks. O(1). *)
val live_task_count : t -> int

(** {2 Snapshot / restore}

    Captures the whole of the cluster's mutable state: the flat slot
    arrays, the free-list head and the per-host list heads and counters.
    The referenced tasks are shared, not copied — restoring inside a
    live process is only sound when process state is itself back at the
    capture point (self-contained bookkeeping tests, or an OS-level fork
    that carried the rest of the heap copy-on-write, which is how the
    explorer uses it; see {!Simkern.Engine.snapshot}). *)

type snapshot

(** [snapshot t] captures the slot tables (O(slots)). *)
val snapshot : t -> snapshot

(** [restore t s] rewinds the tables. Reusable; raises
    [Invalid_argument] if [s] came from a different-size cluster. *)
val restore : t -> snapshot -> unit
