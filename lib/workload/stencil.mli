(** Generic 2D-torus stencil workload.

    The communication skeleton of NAS BT: ranks form a [side x side]
    grid ([n] must be a perfect square), and every iteration each rank
    computes, exchanges boundary data with its four torus neighbours, and
    folds the received values into a running checksum. The checksum makes
    the rollback-recovery protocol {e testable}: a completed run must
    produce exactly {!reference_checksum}, whatever faults occurred —
    lost, duplicated or mis-replayed messages change the result.

    State layout: [state.(0)] = next iteration, [state.(1)] = running
    checksum, [state.(2)] = final global checksum (after the closing
    allreduce). *)

type params = {
  iterations : int;
  compute_time : float;  (** per-rank seconds per iteration *)
  msg_bytes : int;  (** boundary-exchange message size *)
  jitter : float;  (** relative service-time noise amplitude, e.g. [0.02] *)
}

(** [app params ~n_ranks] builds the application. Raises
    [Invalid_argument] if [n_ranks] is not a perfect square. *)
val app : params -> n_ranks:int -> Mpivcl.App.t

(** [valid_ranks n] holds when [n] is a positive perfect square, the rank
    counts {!app} accepts. *)
val valid_ranks : int -> bool

(** [reference_checksum params ~n_ranks] is the checksum a fault-free
    execution produces (computed functionally, without the simulator). *)
val reference_checksum : params -> n_ranks:int -> int

(** [mix a b] is the deterministic combiner used by the stencil. *)
val mix : int -> int -> int
