(** A replica's send log: per destination rank, each application message
    sent, keyed by tag with its sender sequence number (ssn), and the
    next ssn. Ssns agree across a rank's replicas: the application is
    deterministic and a respawn imports its donor's log, so a re-executed
    send finds its logged ssn. The log grows with every message and is
    never trimmed; {!ssn} costs O(1) in its size. *)

type t
type entry = int * Mpivcl.Message.app_msg  (** [(ssn, message)] *)

val create : unit -> t

val ssn : t -> Mpivcl.Message.app_msg -> int
(** The logged ssn of a re-executed [(dst, tag)], which is not logged
    again; otherwise logs the message under [dst]'s next ssn. *)

val above : t -> dst:int -> bound:int -> entry list
(** The entries of [dst] with an ssn above [bound], ascending. *)

val export : t -> (int * entry list) list * (int * int) list
(** [(img_send_log, img_next_ssn)] of a state image; each destination's
    entries come highest ssn first. *)

val import : t -> send_log:(int * entry list) list -> next_ssn:(int * int) list -> unit
(** Installs an image's lists, replacing the destinations they name. *)
