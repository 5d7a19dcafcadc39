(** Replica membership table: the failover layer's bookkeeping, pure of
    any I/O so it can be unit-tested and reasoned about separately. One
    entry per [(rank, slot)]; ['conn] is the control-connection type
    (abstract here to keep the module network-agnostic). *)

type state = Launching | Registered | Ready | Computing | Dead

type 'conn replica = {
  rank : int;
  slot : int;
  mutable m_host : int;
  mutable m_inc : int;  (** incarnation, bumped on every (re)launch *)
  mutable m_conn : 'conn option;
  mutable m_state : state;
  mutable m_resume : bool;
      (** launched as a respawn: on Hello it gets an immediate
          [Start { resume = true }] with a donor instead of joining the
          initial all-ready barrier *)
}

type 'conn t

val create : n_ranks:int -> degree:int -> host_of:(rank:int -> slot:int -> int) -> 'conn t
val get : 'conn t -> rank:int -> slot:int -> 'conn replica

(** Replicas of [rank] that are computing with a live control link. *)
val live_slots : 'conn t -> rank:int -> 'conn replica list

(** Replicas of [rank] on their way up (launching / registered / ready) —
    a rank with zero live but some pending replicas is {e at risk}, not
    yet exhausted. *)
val pending_slots : 'conn t -> rank:int -> 'conn replica list

val all_ready : 'conn t -> bool

(** Per-rank list of non-dead replicas, as sent in [Start] messages. *)
val snapshot : 'conn t -> Rmsg.member list array

val mark_finished : 'conn t -> rank:int -> unit
val finished : 'conn t -> rank:int -> bool
val all_finished : 'conn t -> bool
val iter : ('conn replica -> unit) -> 'conn t -> unit
val state_name : state -> string
