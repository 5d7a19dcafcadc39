(** Checkpoint scheduler.

    Triggers a checkpoint wave every [wave_interval] seconds once every
    daemon of the current incarnation is connected, collects the
    end-of-checkpoint acknowledgements, and only then asserts the end of
    the global checkpoint to the checkpoint servers (§3). A new wave
    starts only after the previous one ended; a wave is aborted if any
    daemon connection breaks while it is in progress.

    The ack wait is bounded: after 20 s (the bound {!Ckpt_server} also
    puts on mirror acks) without
    the full ack set the scheduler re-sends markers to the stragglers
    once, then abandons the wave (traced [wave-abandoned]) — a dead or
    frozen checkpoint server degrades the wave instead of wedging the
    scheduler forever. *)

open Simkern
open Simos

type t

val spawn :
  Engine.t ->
  Cluster.t ->
  Message.t Simnet.Net.t ->
  host:int ->
  n_ranks:int ->
  wave_interval:float ->
  server_hosts:int list ->
  t

(** [committed_count t] counts committed waves (analysis). *)
val committed_count : t -> int

