(** NAS Parallel Benchmarks BT (Block Tridiagonal) model.

    BT runs on a square number of processes with an approximately constant
    aggregate memory footprint divided equally between ranks (§5.2). This
    model reproduces its externally visible behaviour — iteration count,
    per-iteration computation scaled to the paper's Grid Explorer numbers,
    boundary-exchange message sizes, per-rank checkpoint image sizes —
    on top of {!Stencil}.

    Calibration (class B): aggregate compute work chosen so that the
    failure-free BT-49 run lands near the paper's ~210 s, with 200
    iterations; the data footprint of ~320 MB plus a ~25 MB per-process
    runtime overhead gives the 30–40 MB checkpoint images whose transfer
    times drive the paper's §5.2 observations. *)

type klass = A | B | C

val klass_of_string : string -> klass option
val klass_name : klass -> string

(** [params klass ~n_ranks] is the underlying stencil parameterisation. *)
val params : klass -> n_ranks:int -> Stencil.params

(** [app klass ~n_ranks] builds the BT application ([n_ranks] must be a
    perfect square, as for the real BT). *)
val app : klass -> n_ranks:int -> Mpivcl.App.t

(** [state_bytes klass ~n_ranks] is the per-rank checkpoint image base
    size. *)
val state_bytes : klass -> n_ranks:int -> int

(** [reference_checksum klass ~n_ranks] — see {!Stencil.reference_checksum}. *)
val reference_checksum : klass -> n_ranks:int -> int
