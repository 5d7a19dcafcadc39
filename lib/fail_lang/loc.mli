(** Source locations for FAIL programs. *)

type t = { line : int; col : int }

val dummy : t

(** Raised by the lexer, parser and semantic analysis on malformed input. *)
exception Error of t * string

(** [error loc fmt ...] raises {!Error} with a formatted message. *)
val error : t -> ('a, Format.formatter, unit, 'b) format4 -> 'a

(** [to_string e] renders an {!Error} payload as ["line L, col C: msg"]. *)
val error_to_string : t -> string -> string
