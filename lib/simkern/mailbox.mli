(** Unbounded FIFO mailbox connecting simulated processes.

    [send] never blocks; [recv] blocks the calling process until a message
    is available. Messages are delivered in send order. A waiter whose
    process was killed (or raced with another wake-up) rejects the message,
    which is then offered to the next waiter or queued. *)

type 'a t

val create : unit -> 'a t

(** [send mb v] enqueues [v] or hands it to the oldest live waiter. *)
val send : 'a t -> 'a -> unit

(** [recv mb] blocks until a message arrives. Must be called from inside a
    process. *)
val recv : 'a t -> 'a


(** [recv_timeout mb ~timeout] waits at most [timeout] simulated seconds;
    [None] on expiry. *)
val recv_timeout : 'a t -> timeout:float -> 'a option

(** [length mb] is the number of queued (undelivered) messages. *)
val length : 'a t -> int

val is_empty : 'a t -> bool

(** [clear mb] drops all queued messages (waiters are unaffected). *)
val clear : 'a t -> unit
