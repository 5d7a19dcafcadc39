(** Uniform per-run counter set reported by every protocol backend.

    Each backend fills in the counters its protocol actually maintains
    and leaves the rest at [zero]'s values: the rollback families report
    recovery waves, committed checkpoint waves and the §5.3 dispatcher
    race; the replication family reports zero-rollback failovers and
    respawns. Backend-specific counters that have no uniform slot go
    into [extra], so adding a protocol never grows {!Failmpi.Run.result}
    by another field. *)

type t = {
  recoveries : int;  (** dispatcher recovery waves (rollback families) *)
  committed_waves : int;  (** global checkpoint waves committed *)
  confused : bool;  (** the dispatcher hit the §5.3 bookkeeping race *)
  failovers : int;  (** replica failures absorbed with zero rollback *)
  respawns : int;  (** replicas respawned via state transfer *)
  extra : (string * int) list;  (** backend-specific extension counters *)
  net : Simnet.Net.Perturb.stats option;
      (** fabric counters; [None] when no network perturbation was ever
          installed. The §5 classifier reads [dropped] and
          [conn_timeouts] to tell a network-explained wedge ([Net_hung])
          from a protocol bug. *)
}

(** All counters zero / false, no extras, [net = None]. *)
val zero : t

(** [counters t] is the uniform counter list — the five named slots
    (with [confused] rendered as 0/1), then [extra], then, when [net] is
    [Some], [net_dropped], [net_delayed], [net_retransmits] and
    [net_conn_timeouts] — for generic consumers such as
    {!Experiments.Harness.aggregate}. *)
val counters : t -> (string * int) list

(** [find t name] looks a counter up by its {!counters} key. *)
val find : t -> string -> int option
