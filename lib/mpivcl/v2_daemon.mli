(** Communication daemon for the MPICH-V2-style protocol: pessimistic
    sender-based message logging with uncoordinated checkpointing.

    Differences from the Chandy–Lamport Vdaemon (§3's Vcl):
    - every outgoing application message is logged in the sender's memory
      under a per-destination sequence number; the log is part of the
      sender's checkpoint image, so concurrent failures cannot lose it;
    - each rank checkpoints {e independently} on its own timer — no
      markers, no waves, no global coordination;
    - after a rank checkpoints, it broadcasts its per-sender reception
      bounds and senders garbage-collect their logs;
    - on a failure, {e only the failed rank} restarts: it reloads its own
      committed image, reconnects to every live peer and asks each to
      resend the logged messages above its restored reception bounds;
      re-executed duplicate sends are dropped at the receivers.

    The paper's conclusion motivates exactly this comparison: FAIL-MPI
    makes it possible to "evaluate many different implementations at
    large scales and compare them fairly under the same failure
    scenarios" — see the [ablations] entry of {!Experiments.Experiment}. *)

open Simkern

val spawn : Env.t -> rank:int -> host:int -> incarnation:int -> Proc.t
