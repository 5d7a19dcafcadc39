type binop = Add | Sub | Mul | Div | Mod

type relop = Eq | Ne | Lt | Le | Gt | Ge

type expr =
  | Int of int
  | Var of string
  | App_var of string
  | Binop of binop * expr * expr
  | Random of expr * expr

type cond = relop * expr * expr

type trigger =
  | T_timer
  | T_recv of string
  | T_onload
  | T_onexit
  | T_onerror
  | T_before of string
  | T_after of string
  | T_watch of string

type guard = { trigger : trigger option; conds : cond list }

(* Topology components: a switch tier plus per-tier index, a pod or a
   rack of the deployment's configured fabric (Config.topology). They
   resolve against the runtime topology, not the deployment table, so
   sema only substitutes parameters inside the index expressions. *)
type tier = Tier_edge | Tier_agg | Tier_core

let tier_name = function Tier_edge -> "edge" | Tier_agg -> "agg" | Tier_core -> "core"

let tier_of_name = function
  | "edge" -> Some Tier_edge
  | "agg" -> Some Tier_agg
  | "core" -> Some Tier_core
  | _ -> None

type topo_sel = Sel_switch of tier * expr | Sel_pod of expr | Sel_rack of expr

type dest =
  | D_instance of string
  | D_indexed of string * expr
  | D_group of string
  | D_sender
  | D_topo of topo_sel

(* Infrastructure service selector: the checkpoint storage plane and the
   control services of the system under test. Unlike destinations these
   do not resolve against the deployment table — the deployed system
   registers its services with the runtime by name. *)
type service_sel = Svc_ckpt of expr | Svc_sched | Svc_disp

(* Network degradation: [loss] in permille, [latency]/[jitter] in
   milliseconds (FAIL expressions are integers). Omitted fields mean
   "unchanged" (zero). *)
type degrade = {
  deg_target : dest;
  deg_loss : expr option;
  deg_latency : expr option;
  deg_jitter : expr option;
}

type action =
  | A_goto of string
  | A_send of string * dest
  | A_assign of string * expr
  | A_halt of service_sel option
  | A_stop of service_sel option
  | A_continue of service_sel option
  | A_set_app of string * expr
  | A_partition of dest * dest option
      (* cut between two deployment sets; one operand isolates it *)
  | A_heal
  | A_degrade of degrade

type transition = { t_loc : Loc.t; guard : guard; actions : action list }

type node = {
  n_loc : Loc.t;
  n_id : string;
  n_always : (string * expr) list;
  n_timer : (string * expr) option;
  n_transitions : transition list;
}

type daemon = {
  d_loc : Loc.t;
  d_name : string;
  d_vars : (string * expr) list;
  d_nodes : node list;
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

let rec equal_expr a b =
  match (a, b) with
  | Int x, Int y -> x = y
  | Var x, Var y | App_var x, App_var y -> String.equal x y
  | Binop (o1, a1, b1), Binop (o2, a2, b2) -> o1 = o2 && equal_expr a1 a2 && equal_expr b1 b2
  | Random (a1, b1), Random (a2, b2) -> equal_expr a1 a2 && equal_expr b1 b2
  | (Int _ | Var _ | App_var _ | Binop _ | Random _), _ -> false

let equal_cond (r1, a1, b1) (r2, a2, b2) = r1 = r2 && equal_expr a1 a2 && equal_expr b1 b2

let equal_trigger (a : trigger) (b : trigger) = a = b

let equal_guard g1 g2 =
  Option.equal equal_trigger g1.trigger g2.trigger
  && List.equal equal_cond g1.conds g2.conds

let equal_topo_sel s1 s2 =
  match (s1, s2) with
  | Sel_switch (t1, e1), Sel_switch (t2, e2) -> t1 = t2 && equal_expr e1 e2
  | Sel_pod e1, Sel_pod e2 | Sel_rack e1, Sel_rack e2 -> equal_expr e1 e2
  | (Sel_switch _ | Sel_pod _ | Sel_rack _), _ -> false

let equal_service_sel s1 s2 =
  match (s1, s2) with
  | Svc_ckpt e1, Svc_ckpt e2 -> equal_expr e1 e2
  | Svc_sched, Svc_sched | Svc_disp, Svc_disp -> true
  | (Svc_ckpt _ | Svc_sched | Svc_disp), _ -> false

let equal_dest d1 d2 =
  match (d1, d2) with
  | D_instance a, D_instance b | D_group a, D_group b -> String.equal a b
  | D_indexed (a, e1), D_indexed (b, e2) -> String.equal a b && equal_expr e1 e2
  | D_sender, D_sender -> true
  | D_topo s1, D_topo s2 -> equal_topo_sel s1 s2
  | (D_instance _ | D_indexed _ | D_group _ | D_sender | D_topo _), _ -> false

let equal_action a1 a2 =
  match (a1, a2) with
  | A_goto x, A_goto y -> String.equal x y
  | A_send (m1, d1), A_send (m2, d2) -> String.equal m1 m2 && equal_dest d1 d2
  | A_assign (v1, e1), A_assign (v2, e2) | A_set_app (v1, e1), A_set_app (v2, e2) ->
      String.equal v1 v2 && equal_expr e1 e2
  | A_halt s1, A_halt s2 | A_stop s1, A_stop s2 | A_continue s1, A_continue s2 ->
      Option.equal equal_service_sel s1 s2
  | A_heal, A_heal -> true
  | A_partition (a1', b1), A_partition (a2', b2) ->
      equal_dest a1' a2' && Option.equal equal_dest b1 b2
  | A_degrade d1, A_degrade d2 ->
      equal_dest d1.deg_target d2.deg_target
      && Option.equal equal_expr d1.deg_loss d2.deg_loss
      && Option.equal equal_expr d1.deg_latency d2.deg_latency
      && Option.equal equal_expr d1.deg_jitter d2.deg_jitter
  | ( ( A_goto _ | A_send _ | A_assign _ | A_halt _ | A_stop _ | A_continue _ | A_set_app _
      | A_partition _ | A_heal | A_degrade _ ),
      _ ) ->
      false

let equal_transition t1 t2 =
  equal_guard t1.guard t2.guard && List.equal equal_action t1.actions t2.actions

let equal_binding (n1, e1) (n2, e2) = String.equal n1 n2 && equal_expr e1 e2

let equal_node n1 n2 =
  String.equal n1.n_id n2.n_id
  && List.equal equal_binding n1.n_always n2.n_always
  && Option.equal equal_binding n1.n_timer n2.n_timer
  && List.equal equal_transition n1.n_transitions n2.n_transitions

let equal_daemon d1 d2 =
  String.equal d1.d_name d2.d_name
  && List.equal equal_binding d1.d_vars d2.d_vars
  && List.equal equal_node d1.d_nodes d2.d_nodes

let equal_deployment d1 d2 =
  match (d1, d2) with
  | Dep_singleton s1, Dep_singleton s2 ->
      String.equal s1.inst s2.inst && String.equal s1.daemon s2.daemon
      && s1.machine = s2.machine
  | Dep_group g1, Dep_group g2 ->
      String.equal g1.inst g2.inst && g1.count = g2.count
      && String.equal g1.daemon g2.daemon && g1.mach_lo = g2.mach_lo
      && g1.mach_hi = g2.mach_hi
  | (Dep_singleton _ | Dep_group _), _ -> false

let equal_program p1 p2 =
  List.equal equal_daemon p1.daemons p2.daemons
  && List.equal equal_deployment p1.deployments p2.deployments

