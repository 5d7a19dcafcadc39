(** Unbounded FIFO mailbox connecting simulated processes.

    [send] never blocks; [recv] blocks the calling process until a message
    is available. Messages are delivered in send order. A mailbox has at
    most one reader blocked at a time: the reader waits in the mailbox's
    {!Proc.slot}, and a message sent while no reader is blocked in it
    (none is, or the last one was killed) is queued for the next
    [recv]. *)

type 'a t

val create : unit -> 'a t

(** [send mb v] hands [v] to the blocked reader, or queues it. *)
val send : 'a t -> 'a -> unit

(** [recv mb] blocks until a message arrives. Must be called from inside a
    process. Raises [Invalid_argument] if another process is already
    blocked in [recv mb]. *)
val recv : 'a t -> 'a
