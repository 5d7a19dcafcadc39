(** Fault plans: the explorer's unit of search.

    A plan is an ordered list of fault injections against the machines
    of one deployment — a thin, comparable wrapper around
    {!Fail_lang.Codegen.Scenario} that converts losslessly to and from
    FAIL source, so every plan the explorer runs, and every minimized
    witness it emits, is replayable with [failmpi_run --scenario]. *)

(** Kinds, anchors and injections, re-exported from {!Fail_lang.Fault},
    which defines each kind's key tag, report name and actions once. *)
include module type of struct
  include Fail_lang.Fault.Types
end

type fault = injection

type t = { n_machines : int; faults : fault list }

val equal : t -> t -> bool
val compare : t -> t -> int

(** [align_service f] restores the codegen invariant for service faults
    ({!Fail_lang.Fault.align}): [machine] mirrors the ckpt replica index
    ([S_ckpt]) or is 0 (sched/disp); the identity on every other kind.
    Plan constructors that draw machine and kind independently must
    pipe faults through this before keying or rendering them. *)
val align_service : fault -> fault

(** [key p] is a compact, human-readable identifier, e.g.
    ["kill@3+12;freeze8@0@reload5+2"] — stable across processes, used to
    label report rows, emitted files and the persistent corpus. *)
val key : t -> string

(** [of_key ~n_machines s] parses a {!key} back into a plan
    ([of_key ~n_machines (key p) = Ok p] whenever [p.n_machines =
    n_machines] and every fault of [p] is aligned).  It accepts only
    what {!key} prints: every number an unsigned decimal, every fault
    aligned, and [key] of the result equal to [s].  Total: corpus files
    come from disk, so anything else returns [Error] rather than
    raising. *)
val of_key : n_machines:int -> string -> (t, string) result

(** [to_scenario p] renders the plan as FAIL source (no parameters). *)
val to_scenario : t -> string

(** [of_scenario ?params src] parses FAIL source of the generated shape
    back into a plan (parameterized files need their [params], exactly
    like [failmpi_run --param]). *)
val of_scenario : ?params:(string * int) list -> string -> (t, string) result
