(** Compiled form of a FAIL daemon: a flat state machine interpreted by
    the FCI runtime.

    Names are resolved to indices: variables (daemon-global and per-node
    [always]) to slots in a single variable frame, nodes to positions in
    the node array. This is the analogue of the FCI compiler's generated
    C++ in the original tool chain. *)

type cexpr =
  | C_int of int
  | C_var of int  (** variable slot *)
  | C_app_var of string  (** read from the controlled process *)
  | C_binop of Ast.binop * cexpr * cexpr
  | C_random of cexpr * cexpr

type ccond = Ast.relop * cexpr * cexpr

type ctopo_sel =
  | CSel_switch of Ast.tier * cexpr
  | CSel_pod of cexpr
  | CSel_rack of cexpr

type cdest =
  | CD_instance of string
  | CD_indexed of string * cexpr
  | CD_group of string
  | CD_sender
  | CD_topo of ctopo_sel  (** fabric component, resolved at runtime *)

(** Compiled service selector of [halt service ...] and friends; the
    [ckpt] replica index stays an expression until execution. *)
type cservice = CSvc_ckpt of cexpr | CSvc_sched | CSvc_disp

type caction =
  | C_goto of int
  | C_send of string * cdest
  | C_assign of int * cexpr
  | C_halt of cservice option
      (** kill the controlled process, or a registered service *)
  | C_stop of cservice option
  | C_continue of cservice option
  | C_set_app of string * cexpr
  | C_partition of cdest * cdest option
      (** cut between two deployment sets; [None] isolates the first *)
  | C_heal
  | C_degrade of cdest * cexpr option * cexpr option * cexpr option
      (** target, loss (permille), latency (ms), jitter (ms) *)

type ctransition = {
  trigger : Ast.trigger option;
  conds : ccond list;
  actions : caction list;
}

type cnode = {
  node_id : string;
  always : (int * cexpr) list;  (** slot, initialiser; in declaration order *)
  timer : cexpr option;  (** duration, armed on node entry *)
  transitions : ctransition list;
}

type t = {
  name : string;
  var_names : string array;  (** one entry per slot *)
  var_init : (int * cexpr) list;  (** daemon-global initialisers *)
  nodes : cnode array;  (** index 0 is the initial node *)
}

val var_count : t -> int
val node_count : t -> int

(** [node_index t id] finds a node by its source id. *)
val node_index : t -> string -> int option

(** [messages_sent t] / [messages_received t] are the sorted message
    vocabularies, for linking diagnostics. *)
val messages_sent : t -> string list

val messages_received : t -> string list

val pp : Format.formatter -> t -> unit
val pp_trigger : Format.formatter -> Ast.trigger -> unit

(** [topo_sel_s sel] renders a compiled topology selector on one line
    ([switch core\[v0\]], [pod 1]), for runtime traces. *)
val topo_sel_s : ctopo_sel -> string
