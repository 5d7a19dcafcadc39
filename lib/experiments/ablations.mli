(** Ablation studies for the design choices called out in DESIGN.md.

    Every study fans its grid out through one {!Harness.campaign};
    [?jobs] is as in {!Harness.campaign}. *)

(** Buggy vs corrected dispatcher under the two bug-exposing scenarios
    (Fig. 7 at 5 faults and Fig. 11): the corrected dispatcher must never
    freeze. *)
val dispatcher_fix : ?jobs:int -> ?reps:int -> ?n_ranks:int -> unit -> Harness.agg list

(** Non-blocking vs blocking Chandy–Lamport without faults at wave
    intervals of 10, 30 and 60 s: the blocking variant pays for frozen
    communications during each wave. *)
val protocol_overhead : ?jobs:int -> ?n_ranks:int -> unit -> Harness.agg list

(** Checkpoint-interval sweep (10, 20, 30 and 40 s) under one fault
    every 50 s: shows the frequency/interval crossover that explains
    Figure 5's 45 s anomaly. *)
val wave_interval : ?jobs:int -> ?reps:int -> ?n_ranks:int -> unit -> Harness.agg list

(** Coordinated checkpointing (Vcl) vs sender-based message logging
    (MPICH-V2-style) under the same Figure 5 fault-frequency scenarios —
    the comparison the paper's conclusion proposes (cf. [LBH+04]). The
    logging protocol restarts only the failed rank, so it keeps
    terminating at fault frequencies where the coordinated protocol can
    no longer commit a global wave between faults. Fault periods are
    65, 50, 40 and 30 s. *)
val protocol_comparison : ?jobs:int -> ?reps:int -> ?n_ranks:int -> unit -> Harness.agg list

val render_protocol_comparison : Harness.agg list -> string

val render_dispatcher_fix : Harness.agg list -> string
val render_protocol_overhead : Harness.agg list -> string
val render_wave_interval : Harness.agg list -> string
