(** Deterministic multicore fan-out for independent simulation jobs.

    Every experiment in the campaign replays hundreds of independent
    fixed-seed runs; each run is a pure function of its seed, so the
    fan-out is embarrassingly parallel. {!map} distributes jobs over a
    pool of OCaml 5 domains (a [Mutex]/[Condition] work queue) and
    returns the results in input order — bit-for-bit identical to the
    sequential path, whatever the interleaving.

    The pool width is picked per call: the [?jobs] argument if given,
    else the process-wide override ({!set_default_jobs}, wired to the
    [--jobs] flag of the campaign binaries), else the [FAILMPI_JOBS]
    environment variable, else [Domain.recommended_domain_count ()].
    Width 1 runs on the calling domain with no pool at all. *)

(** [default_jobs ()] is the pool width used when [?jobs] is omitted:
    the {!set_default_jobs} override, else [FAILMPI_JOBS], else
    [Domain.recommended_domain_count ()], clamped to [1 .. 64] (OCaml
    caps the number of live domains at ~128). *)
val default_jobs : unit -> int

(** [set_default_jobs n] overrides {!default_jobs} for the whole
    process (the [--jobs] flag). Raises [Invalid_argument] if [n < 1]. *)
val set_default_jobs : int -> unit

(** [map ?jobs f xs] is [List.map f xs] computed on [min jobs
    (List.length xs)] domains. Results are returned in input order. If
    any job raises, the first exception in input order is re-raised
    after all jobs finish. *)
val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list

(** [map_seeds ?jobs ~reps ~base_seed run] fans [run ~seed] out for
    seeds [base_seed, base_seed+1, ...] ([reps] of them), results in
    seed order — the parallel form of the harness replication loop. *)
val map_seeds : ?jobs:int -> reps:int -> base_seed:int -> (seed:int64 -> 'a) -> 'a list
