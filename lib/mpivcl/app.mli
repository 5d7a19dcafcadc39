(** Application programming interface (the MPI-like layer).

    An application is an SPMD program: [main ctx] runs in the computation
    process of every rank, talking to its communication daemon exactly as
    an MPI process talks to its Vdaemon over the local Unix socket.

    Contract required by the rollback-recovery protocol:
    - {b determinism}: re-executing [main] from a committed state with the
      same received values reproduces the same sends and receives;
    - {b unique tags}: each [(src, dst, tag)] triple is sent at most once
      per execution (encode the iteration number in the tag);
    - {b state commits}: all state that must survive a rollback lives in
      [ctx.state]; call [commit] at consistent points (typically the end
      of an iteration). On restart, [main] runs again with [ctx.state]
      restored to the last commit and must fast-forward accordingly. *)

type ctx = {
  rank : int;
  size : int;
  state : int array;  (** restored to the last committed snapshot on restart *)
  send : dst:int -> tag:int -> ?bytes:int -> int -> unit;  (** eager, non-blocking *)
  recv : src:int -> tag:int -> int;  (** blocks until the matching message *)
  commit : unit -> unit;  (** commit [state]; clears the redelivery log *)
  finalize : unit -> unit;  (** MPI_Finalize: signal completion, then return *)
  set_app_var : string -> int -> unit;
      (** expose a named variable to the fault injector (FAIL's planned
          read/write feature) *)
  noise : int -> float;
      (** [noise k] is a uniform value in [\[-1, 1\]] that is a pure
          function of the experiment seed, the rank incarnation and [k] —
          OS-level service-time jitter for compute phases. Using it for
          sleep durations keeps the computation deterministic. *)
}

type t = {
  app_name : string;
  state_size : int;  (** ints in [ctx.state] *)
  main : ctx -> unit;
}

(** {2 Collectives built on the point-to-point layer} *)

(** [allreduce_sum ctx ~tag_base v] sums [v] across ranks (flat gather to
    rank 0 + broadcast; [tag_base .. tag_base + 2*size) must be unused). *)
val allreduce_sum : ctx -> tag_base:int -> int -> int
