(** The daemons' MPI matching queue.

    Application messages that arrive before their receive is posted wait
    here as unexpected messages, and receives posted before their message
    arrives wait as parked receives. Both are matched on the envelope
    [(dst, src, tag)], first come first served per envelope, with one FIFO
    of each kind per envelope, so [deliver] and [serve] are O(1) however
    many envelopes are pending. This is the order a linear scan of one
    arrival-ordered list gives: the oldest pending counterpart with the
    same envelope wins.

    An envelope is packed into one [int]: [dst] and [src] must lie in
    [\[0, 2^20)] and [tag] in [\[0, 2^22)]. Every operation given an
    envelope outside that range raises [Invalid_argument].

    ['r] is the caller's reply handle for a parked receive (the daemons
    use the computation process's [int Proc.slot]); the queue only
    stores and returns it. *)

type 'r t

val create : unit -> 'r t

(** [deliver q m] matches an arriving message. [Some r]: the oldest
    receive parked on [m]'s envelope, now removed, which the caller
    answers with [m]. [None]: no receive was waiting and [m] is buffered. *)
val deliver : 'r t -> Message.app_msg -> 'r option

(** [serve q ~dst ~src ~tag r] matches a posted receive. [Some m]: the
    oldest buffered message on that envelope, now removed. [None]: no
    message was waiting and [r] is parked. *)
val serve : 'r t -> dst:int -> src:int -> tag:int -> 'r -> Message.app_msg option

(** [buffered q] lists the buffered messages in arrival order, the
    daemon buffer a checkpoint image records. *)
val buffered : 'r t -> Message.app_msg list

(** [clear q] drops every buffered message and parked receive. *)
val clear : 'r t -> unit

(** [restore q msgs] replaces the buffered messages with [msgs], oldest
    first, as when a daemon restarts from a checkpoint image. Parked
    receives stay, and [msgs] are not matched against them: a receive
    posted later takes them. *)
val restore : 'r t -> Message.app_msg list -> unit
