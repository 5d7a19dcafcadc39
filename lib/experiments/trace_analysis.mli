(** Execution-trace analysis.

    The paper classifies runs and locates bugs "by analysing the execution
    trace" (§5). This module extracts the protocol-level story from a
    run's {!Simkern.Trace}: when faults landed, how long each recovery
    took, the checkpoint-commit timeline, and a per-phase account of where
    the execution time went. *)

open Simkern

(** One recovery episode: from failure detection to recovery completion
    (coordinated protocols) or rank resumption (sender logging). *)
type recovery = {
  rec_start : float;
  rec_end : float option;  (** [None]: still in progress at the end (frozen?) *)
  trigger_rank : int option;
}

type summary = {
  fault_times : float list;  (** FAIL [halt] injections *)
  recoveries : recovery list;
  commit_times : float list;  (** global wave commits or per-rank commits *)
  confusion_time : float option;  (** first dispatcher-confused event *)
  failover_times : float list;
      (** replication backend: zero-rollback replica failovers *)
  respawn_times : float list;
      (** replication backend: replicas restored via state transfer *)
  exhaustion_time : float option;
      (** replication backend: first replication-exhausted event *)
  total_recovery_time : float;  (** sum of closed recovery episodes *)
  span : float;  (** time of the last trace entry *)
}

val summarize : Trace.t -> summary

(** [pp ppf s] prints a human-readable report. *)
val pp : Format.formatter -> summary -> unit

(** [events_csv trace] renders the raw trace as CSV
    ([time,source,event,detail]) for external tooling. *)
val events_csv : Trace.t -> string
