(** The explorer's fault kinds, each defined once.

    A fault kind is a FAIL scenario fragment that the coordinator of
    {!Codegen.Scenario} fires at one target.  [fault.ml] holds all that
    identifies a kind: its plan-key tag and parser, its report name, its
    coordinator actions, its controller message and
    thaw, the canonical machine of a service fault, and the
    [failmpi_explore] flag that adds it to a search.  Adding a kind means
    adding a constructor and following the compiler's exhaustiveness
    errors through [fault.ml]; a kind that needs a new FAIL action still
    extends the language. *)

(** The types alone, which {!Codegen.Scenario} and [Explore.Plan]
    re-export with [include module type of struct include Fault.Types end]. *)
module Types : sig
  type service =
    | S_ckpt of int  (** checkpoint server replica [i] *)
    | S_sched  (** the checkpoint scheduler *)
    | S_disp  (** the dispatcher *)

  (** An injection's [machine] is a compute host for process and network
      faults, a component index for topology faults (which need a
      configured topology), and the ckpt replica index (0 for sched/disp)
      for service faults. *)
  type kind =
    | Kill  (** controller message [kill]: halt the whole MPI task *)
    | Freeze of { thaw : int }  (** controller [stop], [continue] [thaw] s later *)
    | Partition  (** isolate the target machine from every other host *)
    | Degrade of { loss : int; latency : int }
        (** worsen every link touching the target ([loss] permille,
            [latency] ms) *)
    | Heal  (** clear every installed network fault (machine 0, ignored) *)
    | Switch_kill of { tier : Ast.tier }
        (** [partition switch <tier>\[machine\]]: every route through it cut *)
    | Pod_degrade of { loss : int; latency : int }
        (** [degrade pod machine ...] on every intra-pod link *)
    | Service_kill of { service : service }  (** [halt service ...] *)
    | Service_freeze of { service : service; thaw : int }
        (** [stop service ...], [continue service ...] [thaw] s later *)

  type anchor =
    | After of int  (** seconds after the previous fault fired (scenario start for the first) *)
    | On_reload of { nth : int; delay : int }
        (** [delay] seconds after the [nth] cumulative daemon registration *)

  type injection = { machine : int; anchor : anchor; kind : kind }
end

include module type of struct
  include Types
end

(** [tag k] is [k] in plan keys, e.g. ["deg50l2"]; a ckpt replica index
    is not part of it.  [Kill]'s and [Freeze]'s tags are also their
    controller messages. *)
val tag : kind -> string

(** [of_tag s] is the kind whose {!tag} is exactly [s] (a ckpt replica
    index comes back as 0; see {!align}). *)
val of_tag : string -> kind option

(** [name k] is [k] in explorer JSON reports, e.g. ["degrade50l2"]. *)
val name : kind -> string

(** [thaw k] is the controller freeze duration of a [Freeze]; [None] for
    every other kind (a service freeze thaws from a coordinator node). *)
val thaw : kind -> int option

(** [align i] is the canonical form of [i]: a ckpt service fault takes
    its [machine] as its replica index, a sched/disp fault moves to
    machine 0, and any other injection is [i] itself. *)
val align : injection -> injection

(** [inject ~group ~machine k] is the coordinator action that fires [k]
    (host faults address [group\[machine\]]) and, for a kind the
    coordinator undoes itself, the delay and action of the thaw node
    that follows the fire node. *)
val inject : group:string -> machine:int -> kind -> Ast.action * (int * Ast.action) option

(** [explorer_kinds ~freeze ~net ~services ~topo] is the kind list of a
    [failmpi_explore] search: [Kill], then the kinds of each axis its
    flag turns on ([--freeze THAW], [--net], [--services],
    [--topo fat-tree:K]) with their default parameters, in that order. *)
val explorer_kinds : freeze:int option -> net:bool -> services:bool -> topo:bool -> kind list
