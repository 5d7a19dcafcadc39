(** The daemons' duplicate-suppression set.

    A re-executed rank sends again what it sent before a rollback, and
    [(src, tag)] is unique per destination within one execution, so a
    daemon drops an application message whose pair it has already
    delivered. The set keys an int-specialised table by one int packed
    from the pair: a lookup or re-insertion of a present pair allocates
    nothing and calls neither the polymorphic hash nor compare.

    The packing [key ~src ~tag] is [(tag lsl 20) lor src]. It is
    injective for [0 <= src < 2^20], which [key] checks, and any tag in
    [\[-2^42, 2^42)], negative tags included; the workloads' tags are far
    inside that range. Checkpoint images carry the packed keys as they
    are ({!keys}, {!add_keys}), so they never need unpacking. *)

type t

(** [key ~src ~tag] packs a pair. Raises [Invalid_argument] unless
    [0 <= src < 2^20]. *)
val key : src:int -> tag:int -> int

val create : unit -> t

(** [mem t ~src ~tag] is whether the pair was added. *)
val mem : t -> src:int -> tag:int -> bool

(** [add t ~src ~tag] adds the pair; adding a present pair changes
    nothing. *)
val add : t -> src:int -> tag:int -> unit

(** [keys t] lists the packed keys of every pair added, in no
    particular order: the set a checkpoint image records. *)
val keys : t -> int list

(** [add_keys t ks] adds the pairs packed in [ks], as when a daemon
    restores an image's set. *)
val add_keys : t -> int list -> unit
