(** Process-control interface between a FAIL-MPI daemon and a process of
    the application under test.

    In the original tool the FCI daemon drives the target through a
    debugger (GDB): kill, SIGSTOP/SIGCONT, breakpoints, and — as the
    paper's planned feature — reading and writing program variables. Here
    the application registers a {!target} whose callbacks implement the
    same control surface on simulated processes. *)

open Simkern

type target = {
  target_name : string;  (** e.g. ["vdaemon-rank3"] *)
  proc : Proc.t;  (** main process; its exit drives [onexit]/[onerror] *)
  kill : unit -> unit;  (** crash injection ([halt] action) *)
  freeze : unit -> unit;  (** [stop] action *)
  unfreeze : unit -> unit;  (** [continue] action *)
  read_var : string -> int option;  (** planned feature: read a program variable *)
  write_var : string -> int -> bool;  (** planned feature: write one; false if unknown *)
  subscribe_var : (string -> unit) -> unit;  (** notify on every variable write *)
}

(** [of_procs ~name ~main ~children] builds a target for a whole MPI
    task: [kill], [freeze] and [unfreeze] act on every process [children]
    yields, then on [main] (the paper halts the whole task: computation
    process and communication daemon). [children f] is called at each
    action, so it sees the processes the task has at that moment, such as
    an application process started after registration. *)
val of_procs :
  name:string -> main:Proc.t -> children:((Proc.t -> unit) -> unit) -> target

(** {2 Program variables}

    A mutable integer table the application exposes to the injector,
    implementing the conclusion's planned feature. *)

type vars

val make_vars : unit -> vars

(** [set_var vars name v] writes a variable, notifying subscribers. *)
val set_var : vars -> string -> int -> unit

(** [with_vars target vars] returns a copy of [target] whose variable
    operations are backed by [vars]. *)
val with_vars : target -> vars -> target
