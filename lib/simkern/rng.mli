(** Deterministic pseudo-random number generator (splitmix64).

    Every stochastic choice in the simulator draws from an explicit [Rng.t]
    so that a whole experiment is reproducible from its seed. [split]
    derives an independent stream, which lets concurrent components draw
    without perturbing each other's sequences. *)

type t

(** [create seed] returns a generator seeded with [seed]. *)
val create : int64 -> t

(** [split t] returns a new generator whose stream is independent of the
    subsequent outputs of [t]. *)
val split : t -> t

(** [int64 t] returns the next raw 64-bit output. *)
val int64 : t -> int64

(** [int t bound] returns a uniform integer in [\[0, bound)]. Raises
    [Invalid_argument] if [bound <= 0]. *)
val int : t -> int -> int

(** [int_in_range t ~lo ~hi] returns a uniform integer in [\[lo, hi\]]
    (inclusive). Raises [Invalid_argument] if [hi < lo]. *)
val int_in_range : t -> lo:int -> hi:int -> int

(** [float t bound] returns a uniform float in [\[0, bound)]. *)
val float : t -> float -> float

(** [choose t l] picks a uniform element of [l]. Raises
    [Invalid_argument] on the empty list. *)
val choose : t -> 'a list -> 'a
