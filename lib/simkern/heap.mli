(** Mutable 4-ary min-heap, used as the simulator's event queue.

    The ordering function is supplied at creation; ties are broken by
    insertion order only if the ordering function encodes them (the engine
    keys events by [(time, sequence)] for a deterministic total order). *)

type 'a t

(** [create ~compare] returns an empty heap ordered by [compare]. *)
val create : compare:('a -> 'a -> int) -> 'a t

val length : 'a t -> int
val is_empty : 'a t -> bool

(** [push h x] inserts [x]. *)
val push : 'a t -> 'a -> unit

(** [peek h] returns the minimum element without removing it. *)
val peek : 'a t -> 'a option

(** [pop h] removes and returns the minimum element. A heap drained to
    empty holds no reference to any element it returned. *)
val pop : 'a t -> 'a option

(** [clear h] removes every element. *)
val clear : 'a t -> unit

(** [filter_in_place h ~keep] drops every element for which [keep] is
    false and restores the heap invariant in O(n) (Floyd heapify). The
    pop order of the survivors is unchanged (the ordering function is a
    total order). Used by the engine to compact cancelled-event
    tombstones. *)
val filter_in_place : 'a t -> keep:('a -> bool) -> unit

(** [to_list h] returns the elements in unspecified order. *)
val to_list : 'a t -> 'a list
