(** Wire messages and checkpoint images of the MPICH-Vcl stack.

    A single message type is carried by every connection of the overlay
    (daemon mesh, dispatcher, checkpoint scheduler, checkpoint servers);
    each endpoint pattern-matches the subset it understands. *)

(** An application-level (MPI) message. [(src, dst, tag)] triples are
    unique per execution — the daemon relies on this to drop duplicates
    created by re-execution after a rollback. *)
type app_msg = { src : int; dst : int; tag : int; data : int; bytes : int }

(** A local checkpoint image: the computation-process snapshot plus the
    daemon's channel state, as streamed to a checkpoint server. *)
type image = {
  img_rank : int;
  img_wave : int;
  img_state : int array;  (** application state at the cut *)
  img_buffer : app_msg list;  (** undelivered daemon buffer at the cut *)
  img_redelivery : app_msg list;
      (** messages delivered to the application since its last state
          commit — re-served on re-execution of the partial iteration *)
  img_logged : app_msg list;  (** channel-state (in-transit) messages, in arrival order *)
  img_seen : int list;
      (** the duplicate-suppression set at the cut, as {!Dedup.keys}
          packs it *)
  img_received : (int * int) list;
      (** sender-based logging only: per-sender highest received ssn —
          the resend bound after a restart *)
  img_send_log : (int * (int * app_msg) list) list;
      (** sender-based logging only: per-destination logged sends
          [(dest, [(ssn, msg); ...])], checkpointed so that concurrent
          failures cannot lose the log *)
  img_next_ssn : (int * int) list;
      (** sender-based logging only: per-destination next send sequence
          number — must be checkpointed explicitly (a garbage-collected
          log carries no trace of past sequence numbers) *)
  img_bytes : int;  (** simulated size, drives transfer times *)
}

type t =
  (* daemon <-> daemon *)
  | Peer_hello of { rank : int }
  | App of app_msg
  | Marker of { wave : int }
  (* daemon <-> dispatcher *)
  | Hello of { rank : int; incarnation : int }
  | Ready of { rank : int }
  | Start of { rank_hosts : int array; resume : bool }
  | Terminate
  | Rank_done of { rank : int }
  | Shutdown
  (* daemon <-> checkpoint scheduler *)
  | Sched_hello of { rank : int }
  | Sched_marker of { wave : int }
  | Sched_ack of { rank : int; wave : int }
  (* daemon <-> checkpoint server *)
  | Store of { image : image }
  | Store_done of { wave : int }
  | Fetch of { rank : int; local_wave : int option }
      (** [local_wave]: newest wave available on the host's local disk *)
  | Fetch_use_local of { wave : int }
  | Fetch_image of { image : image option }
  (* scheduler <-> checkpoint server *)
  | Commit of { wave : int }
  (* MPICH-V2-style sender-based logging (daemon <-> daemon / server) *)
  | App_logged of { msg : app_msg; ssn : int }
      (** application message with its sender sequence number *)
  | Log_gc of { rank : int; consumed : (int * int) list }
      (** [rank] checkpointed having consumed, per sender, messages up to
          the given ssn: senders may garbage-collect their logs *)
  | Resend of { rank : int; consumed : (int * int) list }
      (** restarted [rank] asks the peer to resend its logged messages
          with ssn above the restored per-sender consumption bound *)
  | Commit_rank of { rank : int; wave : int }
      (** commit one rank's independent checkpoint *)
  (* checkpoint server <-> checkpoint server (replication plane) *)
  | Mirror_store of { image : image }
      (** primary pushes a freshly prepared image to the rank's mirror *)
  | Mirror_ack of { rank : int; wave : int }
      (** mirror acknowledges a replicated image; the primary only then
          acks the daemon's store *)
  | Sync_pull of { shard : int }
      (** a respawned server asks a neighbour for every committed image
          of the given shard (ranks with [rank mod n_servers = shard]) *)
  | Sync_images of { images : image list }
  (* daemon -> dispatcher *)
  | Ckpt_lost_report of { rank : int }
      (** a restarting rank exhausted the fetch failover ladder (primary
          then mirror, with backoff) without reaching any replica: no
          complete image survives and recovery is impossible *)

val pp : Format.formatter -> t -> unit

(** [image_bytes ~state_bytes msgs] sums a snapshot's simulated size. *)
val image_bytes : state_bytes:int -> app_msg list -> int
