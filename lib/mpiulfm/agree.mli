(** The ulfm survivor agreement as a pure state machine: who is in the
    next epoch. A revocation makes the unsuspected members agree in two
    ballot-ordered phases: the candidate collects a [Grant] from every
    member it proposes, adopts the highest decision any of them accepted
    (or computes {!Shrinkc.next}), collects an [Accepted] from each and
    broadcasts [Decide]. A ballot proposing fewer than {!Shrinkc.quorum}
    of the superseded epoch's members never reaches phase 2, so a
    partitioned minority cannot install a second survivor set: it
    retries after {!agree_timeout} and aborts once it has started
    {!max_ballots} ballots for one epoch. [step] reads no clock, RNG or
    network. Trace events it asks for: [revoke], [ballot],
    [quorum-lost], [ballot-timeout], [decide], [abort], [protocol-error]. *)

val agree_timeout : float
val max_ballots : int

type t

val create : id:int -> population:int -> n_ranks:int -> t

(** What the failure detector and snapshot store report with an input. *)
type view = {
  torn : bool;  (** a member link tore, or the agreed restart point is gone *)
  suspects : int list;  (** suspected members, in member order *)
  avail : (int * int list) list Lazy.t;  (** snapshot iterations held, per rank *)
}

type timer = Propose of int | Ballot of int  (** by token; a stale one is ignored *)

type input =
  | Start of int list  (** the dispatcher's start: every daemon is a member *)
  | Message of view * int * Umsg.t
      (** a peer message the daemon does not handle itself: an agreement
          message or [Probe]; any other is traced as [protocol-error] *)
  | Outsider of int  (** a message from a non-member: [Stale] once per epoch *)
  | Heartbeat of int * int  (** a peer's heartbeat and its epoch: [Probe] once per epoch *)
  | Timeout of view * timer
  | Check of view  (** the detector's periodic check *)
  | Torn of view  (** a member link tore or a snapshot fetch failed *)

type action =
  | Send of int * Umsg.t
  | Broadcast of Umsg.t  (** to every connected peer *)
  | Arm of float * timer  (** feed [Timeout] back after the delay *)
  | Suspect of int  (** a peer that did not answer a ballot in time *)
  | Install of { decision : Shrinkc.decision; ballots : int }  (** [ballots] started for it *)
  | Abort of string
  | Trace of { level : Simkern.Trace.level; event : string; detail : string }

val step : t -> input -> t * action list

val started : t -> bool
val epoch : t -> int
val members : t -> int list
val assign : t -> (int * int) list
val decision : t -> Shrinkc.decision option
