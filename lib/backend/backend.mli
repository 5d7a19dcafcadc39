(** Protocol backends: one launch / await / status / metrics contract
    for every fault-tolerance protocol family.

    {!Failmpi.Run.execute} is protocol-agnostic: it resolves the backend
    for [cfg.protocol] with {!of_protocol}, launches it, spawns one
    watchdog on {!S.await}, and classifies the outcome from {!S.status}
    in one [match] — adding a protocol family is one {!Builtin} module,
    one entry in {!Builtin.all} and one arm in {!of_protocol}, not core
    surgery. See [docs/ARCHITECTURE.md]. *)

module Metrics = Metrics

(** Where a run stands; see {!Intf.status}. *)
type status = Intf.status =
  | Running
  | Completed of float
  | Degraded of { at : float; survivors : int }
  | Aborted of string
  | Ckpt_lost
  | Frozen

(** The backend contract; see {!Intf.S} for the full documentation. *)
module type S = Intf.S

(** A backend as a first-class module. *)
type t = Intf.t

module Builtin = Builtin

(** [of_protocol p] is the backend that runs protocol [p]. Total: every
    [Config.protocol] constructor has exactly one backend. *)
val of_protocol : Mpivcl.Config.protocol -> t

(** [find name] resolves a canonical name or an alias. *)
val find : string -> t option

(** Every backend ({!Builtin.all}) / their canonical names, in the
    order experiments report them. *)
val all : unit -> t list

val names : unit -> string list
