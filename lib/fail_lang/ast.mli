(** Abstract syntax of the FAIL language.

    FAIL (FAult Injection Language, [HT05]) describes fault scenarios as
    communicating state machines ("daemons") associated with machines or
    groups of machines. This reconstruction covers every construct used by
    the paper's listings (Figures 4, 5a, 7a, 8 and 10) — daemon-global
    variables, per-node [always] declarations and timers, message
    send/receive, the FAIL-MPI lifecycle triggers [onload]/[onexit]/
    [onerror], debugger breakpoints [before]/[after], process-control
    actions [halt]/[stop]/[continue], [FAIL_RANDOM] and [FAIL_SENDER] —
    plus the conclusion's planned feature: reading ([@var] in expressions,
    [watch] triggers) and writing ([set]) variables of the application
    under test.

    Concrete syntax of a deployment (associating daemons to machines):
    {v
      P1 : ADV1 on machine 53;
      G1[53] : ADV2 on machines 0 .. 52;
    v} *)

type binop = Add | Sub | Mul | Div | Mod

type relop = Eq | Ne | Lt | Le | Gt | Ge

type expr =
  | Int of int
  | Var of string  (** daemon variable, [always] variable or parameter *)
  | App_var of string  (** [@name]: variable of the controlled process *)
  | Binop of binop * expr * expr
  | Random of expr * expr  (** [FAIL_RANDOM(lo, hi)], uniform inclusive *)

(** A conjunction of relational atoms ([c1 && c2 && ...]). *)
type cond = relop * expr * expr

(** The event component of a guard. A transition with [trigger = None]
    is evaluated on node entry ("epsilon" transition). *)
type trigger =
  | T_timer  (** the node timer expired *)
  | T_recv of string  (** [?msg]: a message arrived *)
  | T_onload  (** a process registered with this daemon *)
  | T_onexit  (** the controlled process exited normally *)
  | T_onerror  (** the controlled process exited abnormally *)
  | T_before of string  (** controlled process about to call the function *)
  | T_after of string  (** controlled process returned from the function *)
  | T_watch of string  (** [watch(name)]: a watched application variable changed *)

type guard = { trigger : trigger option; conds : cond list }

(** Switch tier of a fat-tree fabric (see {!Simtopo.Topo.tier}; duplicated
    here so the language layer stays dependency-free). *)
type tier = Tier_edge | Tier_agg | Tier_core

val tier_name : tier -> string
val tier_of_name : string -> tier option

(** Topology component selector: [switch agg\[2\]], [pod 1], [rack 3].
    Indices are FAIL expressions so scenarios can randomise or parameterise
    the component ([rack FAIL_RANDOM(0, 7)]). Resolution against the
    deployed fabric happens at runtime, not in sema. *)
type topo_sel =
  | Sel_switch of tier * expr
  | Sel_pod of expr
  | Sel_rack of expr

(** Destination of a message send or target of a network fault. *)
type dest =
  | D_instance of string  (** a singleton instance, e.g. [P1] *)
  | D_indexed of string * expr  (** a group member, e.g. [G1\[ran\]] *)
  | D_group of string  (** a whole group (broadcast) *)
  | D_sender  (** [FAIL_SENDER]: sender of the triggering message *)
  | D_topo of topo_sel
      (** a fabric component; only meaningful in [partition]/[degrade] *)

(** Infrastructure service selector: [halt service ckpt\[0\]] kills the
    first checkpoint server, [stop service sched] freezes the checkpoint
    scheduler, [continue service disp] thaws the dispatcher. Services are
    registered by name by the deployed system under test, not by the
    scenario's deployment table; the [ckpt] index is a FAIL expression so
    scenarios can randomise the replica. *)
type service_sel = Svc_ckpt of expr | Svc_sched | Svc_disp

(** Network degradation targeting the machines behind a destination:
    [degrade G1 loss = 50 latency = 20 jitter = 5]. Units are what FAIL's
    integer expressions allow — [loss] in permille (0..1000), [latency]
    and [jitter] in milliseconds. Omitted fields leave that dimension
    unchanged (zero). *)
type degrade = {
  deg_target : dest;
  deg_loss : expr option;
  deg_latency : expr option;
  deg_jitter : expr option;
}

type action =
  | A_goto of string
  | A_send of string * dest  (** [!msg(dest)] *)
  | A_assign of string * expr
  | A_halt of service_sel option
      (** kill the controlled process (crash injection), or with a
          selector an infrastructure service ([halt service ckpt\[i\]]) *)
  | A_stop of service_sel option  (** suspend the controlled process or a service *)
  | A_continue of service_sel option  (** resume the controlled process or a service *)
  | A_set_app of string * expr  (** [set name = expr] on the controlled process *)
  | A_partition of dest * dest option
      (** [partition A B]: bidirectional network cut between the machines
          of [A] and those of [B]; [partition A] isolates [A]'s machines
          from every other host *)
  | A_heal  (** remove every installed network fault *)
  | A_degrade of degrade  (** [degrade DEST loss = p latency = d jitter = j] *)

type transition = { t_loc : Loc.t; guard : guard; actions : action list }

type node = {
  n_loc : Loc.t;
  n_id : string;  (** numeric labels are normalised to their digits *)
  n_always : (string * expr) list;  (** re-evaluated at each node entry *)
  n_timer : (string * expr) option;  (** armed at each node entry *)
  n_transitions : transition list;
}

type daemon = {
  d_loc : Loc.t;
  d_name : string;
  d_vars : (string * expr) list;  (** daemon-global variables *)
  d_nodes : node list;  (** first node is initial *)
}

type deployment =
  | Dep_singleton of { dep_loc : Loc.t; inst : string; daemon : string; machine : int }
  | Dep_group of {
      dep_loc : Loc.t;
      inst : string;
      count : int;
      daemon : string;
      mach_lo : int;
      mach_hi : int;
    }

type program = { daemons : daemon list; deployments : deployment list }

val equal_expr : expr -> expr -> bool
val equal_program : program -> program -> bool
