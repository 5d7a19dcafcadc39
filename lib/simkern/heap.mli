(** Mutable 4-ary min-heap keyed by [(time, seq)], used as the
    simulator's event queue.

    The heap is a structure of arrays: times in a [Float.Array.t]
    (unboxed), sequence numbers in an [int array], and payloads in a
    third array, slot [i] of each describing one entry. Entries pop in
    increasing [time], ties broken by increasing [seq]; the engine gives
    every event a distinct [seq], which makes the order total. A
    comparison reads two unboxed keys and no payload, and pushing or
    popping allocates nothing once the arrays have grown. Times must not
    be NaN (the engine rejects them before they reach the heap). *)

type 'a t

(** An all-float record, stored flat: {!pop_into} moves a popped time
    into it without boxing. The engine keeps its clock in one. *)
type clock = { mutable now : float }

(** [create ()] returns an empty heap. *)
val create : unit -> 'a t

val length : 'a t -> int
val is_empty : 'a t -> bool

(** [push h ~time ~seq x] inserts [x] under the key [(time, seq)]. *)
val push : 'a t -> time:float -> seq:int -> 'a -> unit

(** [push_after h clock ~delay ~seq x] is [push h ~time:(clock.now +.
    delay) ~seq x] without boxing the sum. *)
val push_after : 'a t -> clock -> delay:float -> seq:int -> 'a -> unit

(** [min h] is the payload of the minimum entry. Raises
    [Invalid_argument] on an empty heap. *)
val min : 'a t -> 'a

(** [min_after h time] is true when the minimum entry's time is later
    than [time]. Raises [Invalid_argument] on an empty heap. *)
val min_after : 'a t -> float -> bool

(** [min_before h cell seq] is true when the minimum key of [h] is less
    than [(cell.now, seq)]. Raises [Invalid_argument] on an empty heap. *)
val min_before : 'a t -> clock -> int -> bool

(** [precedes a b] is true when the minimum key of [a] is less than the
    minimum key of [b]. Raises [Invalid_argument] if either is empty. *)
val precedes : 'a t -> 'b t -> bool

(** [pop h] removes the minimum entry and returns its payload; [pop_into
    h clock] does the same and stores its time in [clock.now]. A heap
    drained to empty drops its arrays, so it holds no reference to any
    payload it returned. Raise [Invalid_argument] on an empty heap. *)
val pop : 'a t -> 'a

val pop_into : 'a t -> clock -> 'a

(** [clear h] removes every entry. *)
val clear : 'a t -> unit

(** [filter_in_place h ~keep] drops every entry whose payload fails
    [keep] and restores the heap invariant in O(n) (Floyd heapify). The
    pop order of the survivors is unchanged. Used by the engine to
    compact cancelled-event tombstones. *)
val filter_in_place : 'a t -> keep:('a -> bool) -> unit
