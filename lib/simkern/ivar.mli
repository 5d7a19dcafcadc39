(** Write-once synchronization variable.

    An ivar starts empty; [fill] sets it exactly once and wakes every
    reader. Later [read]s return immediately. Used for acknowledgements and
    barriers in the protocol code. *)

type 'a t

val create : unit -> 'a t

(** [fill iv v] sets the value. Raises [Invalid_argument] if already
    filled. *)
val fill : 'a t -> 'a -> unit

(** [read iv] blocks until the ivar is filled, then returns the value. *)
val read : 'a t -> 'a

(** [peek iv] returns the value if filled. *)
val peek : 'a t -> 'a option
