(** Small statistics helpers for experiment aggregation. *)

val mean : float list -> float option
val stddev : float list -> float option

(** [percent ~total n] is [100 * n / total] (0 if [total = 0]). *)
val percent : total:int -> int -> float
