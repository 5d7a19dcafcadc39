open Ast

module Smap = Map.Make (String)
module Sset = Set.Make (String)

type scope = {
  params : int Smap.t;
  daemon_vars : Sset.t;
  always_vars : Sset.t;  (* of the node under analysis *)
}

let rec subst_expr scope loc = function
  | Int n -> Int n
  | Var name -> (
      match Smap.find_opt name scope.params with
      | Some v -> Int v
      | None ->
          if Sset.mem name scope.always_vars || Sset.mem name scope.daemon_vars then Var name
          else Loc.error loc "unbound variable %s" name)
  | App_var name -> App_var name
  | Binop (op, a, b) -> Binop (op, subst_expr scope loc a, subst_expr scope loc b)
  | Random (lo, hi) -> Random (subst_expr scope loc lo, subst_expr scope loc hi)

let subst_cond scope loc (op, a, b) = (op, subst_expr scope loc a, subst_expr scope loc b)

let check_unique what loc names =
  let rec run seen = function
    | [] -> ()
    | name :: rest ->
        if Sset.mem name seen then Loc.error loc "duplicate %s %s" what name
        else run (Sset.add name seen) rest
  in
  run Sset.empty names

(* Deployment information used to resolve destinations; empty when the
   program declares no deployments. *)
type dep_info = { singletons : Sset.t; groups : Sset.t }

let resolve_dest deps scope loc = function
  | D_sender -> D_sender
  | D_topo sel ->
      (* Topology components resolve against the runtime fabric
         (Config.topology), not the deployment table — only the index
         expressions are substituted here. *)
      D_topo
        (match sel with
        | Sel_switch (tier, e) -> Sel_switch (tier, subst_expr scope loc e)
        | Sel_pod e -> Sel_pod (subst_expr scope loc e)
        | Sel_rack e -> Sel_rack (subst_expr scope loc e))
  | D_indexed (name, e) ->
      (match deps with
      | Some d when not (Sset.mem name d.groups) ->
          Loc.error loc "%s is not a deployed group" name
      | Some _ | None -> ());
      D_indexed (name, subst_expr scope loc e)
  | D_group name ->
      (match deps with
      | Some d when not (Sset.mem name d.groups) ->
          Loc.error loc "%s is not a deployed group" name
      | Some _ | None -> ());
      D_group name
  | D_instance name -> (
      match deps with
      | None -> D_instance name
      | Some d ->
          if Sset.mem name d.singletons then D_instance name
          else if Sset.mem name d.groups then D_group name
          else Loc.error loc "%s is not a deployed instance" name)

(* Services resolve by name against the deployed system at runtime, so
   only the [ckpt] replica index needs substitution here. *)
let subst_service scope loc = function
  | None -> None
  | Some (Svc_ckpt e) -> Some (Svc_ckpt (subst_expr scope loc e))
  | Some (Svc_sched | Svc_disp) as svc -> svc

let check_action deps scope ~node_ids ~has_recv_trigger loc = function
  | A_goto target ->
      if not (Sset.mem target node_ids) then Loc.error loc "goto to unknown node %s" target;
      A_goto target
  | A_send (msg, dest) ->
      let dest = resolve_dest deps scope loc dest in
      (match dest with
      | D_sender when not has_recv_trigger ->
          Loc.error loc "FAIL_SENDER used outside a ?message-triggered transition"
      | D_sender | D_instance _ | D_indexed _ | D_group _ | D_topo _ -> ());
      A_send (msg, dest)
  | A_assign (name, e) ->
      if not (Sset.mem name scope.daemon_vars || Sset.mem name scope.always_vars) then
        Loc.error loc "assignment to undeclared variable %s" name;
      A_assign (name, subst_expr scope loc e)
  | A_halt svc -> A_halt (subst_service scope loc svc)
  | A_stop svc -> A_stop (subst_service scope loc svc)
  | A_continue svc -> A_continue (subst_service scope loc svc)
  | A_set_app (name, e) -> A_set_app (name, subst_expr scope loc e)
  | A_partition (a, b) ->
      (* Network faults target deployment sets, never the dynamic sender. *)
      let check_side d =
        match resolve_dest deps scope loc d with
        | D_sender -> Loc.error loc "partition cannot target FAIL_SENDER"
        | (D_instance _ | D_indexed _ | D_group _ | D_topo _) as d -> d
      in
      A_partition (check_side a, Option.map check_side b)
  | A_heal -> A_heal
  | A_degrade d ->
      let deg_target =
        match resolve_dest deps scope loc d.deg_target with
        | D_sender -> Loc.error loc "degrade cannot target FAIL_SENDER"
        | (D_instance _ | D_indexed _ | D_group _ | D_topo _) as dest -> dest
      in
      let sub = Option.map (subst_expr scope loc) in
      A_degrade
        {
          deg_target;
          deg_loss = sub d.deg_loss;
          deg_latency = sub d.deg_latency;
          deg_jitter = sub d.deg_jitter;
        }

let check_transition deps scope ~node_ids ~has_timer t =
  let loc = t.t_loc in
  (match t.guard.trigger with
  | Some T_timer when not has_timer ->
      Loc.error loc "'timer' guard in a node that declares no timer"
  | Some (T_timer | T_recv _ | T_onload | T_onexit | T_onerror | T_before _ | T_after _
         | T_watch _)
  | None ->
      ());
  let has_recv_trigger =
    match t.guard.trigger with Some (T_recv _) -> true | Some _ | None -> false
  in
  let conds = List.map (subst_cond scope loc) t.guard.conds in
  let actions = List.map (check_action deps scope ~node_ids ~has_recv_trigger loc) t.actions in
  { t with guard = { t.guard with conds }; actions }

let check_node deps ~params ~daemon_vars ~node_ids node =
  let loc = node.n_loc in
  check_unique "always variable" loc (List.map fst node.n_always);
  (* No shadowing: an always variable may not reuse a daemon variable or
     parameter name. *)
  List.iter
    (fun (name, _) ->
      if Sset.mem name daemon_vars then
        Loc.error loc "always variable %s shadows a daemon variable" name;
      if Smap.mem name params then Loc.error loc "always variable %s shadows a parameter" name)
    node.n_always;
  (* Always initialisers see daemon vars and previously declared always
     vars of the same node. *)
  let always_vars, n_always =
    List.fold_left
      (fun (seen, acc) (name, e) ->
        let scope = { params; daemon_vars; always_vars = seen } in
        let e = subst_expr scope loc e in
        (Sset.add name seen, (name, e) :: acc))
      (Sset.empty, []) node.n_always
  in
  let n_always = List.rev n_always in
  let scope = { params; daemon_vars; always_vars } in
  let n_timer =
    Option.map (fun (name, e) -> (name, subst_expr scope loc e)) node.n_timer
  in
  let has_timer = Option.is_some n_timer in
  let n_transitions =
    List.map (check_transition deps scope ~node_ids ~has_timer) node.n_transitions
  in
  { node with n_always; n_timer; n_transitions }

let check_daemon deps ~params d =
  let loc = d.d_loc in
  check_unique "daemon variable" loc (List.map fst d.d_vars);
  List.iter
    (fun (name, _) ->
      if Smap.mem name params then
        Loc.error loc "daemon variable %s shadows a parameter" name)
    d.d_vars;
  check_unique "node" loc (List.map (fun n -> n.n_id) d.d_nodes);
  let node_ids = Sset.of_list (List.map (fun n -> n.n_id) d.d_nodes) in
  (* Daemon variable initialisers may reference parameters and previously
     declared daemon variables. *)
  let daemon_vars, d_vars =
    List.fold_left
      (fun (seen, acc) (name, e) ->
        let scope = { params; daemon_vars = seen; always_vars = Sset.empty } in
        let e = subst_expr scope loc e in
        (Sset.add name seen, (name, e) :: acc))
      (Sset.empty, []) d.d_vars
  in
  let d_vars = List.rev d_vars in
  let d_nodes = List.map (check_node deps ~params ~daemon_vars ~node_ids) d.d_nodes in
  { d with d_vars; d_nodes }

let check_deployments daemons deployments =
  let daemon_names = Sset.of_list (List.map (fun d -> d.d_name) daemons) in
  let seen = ref Sset.empty in
  List.iter
    (fun dep ->
      let loc, inst, daemon =
        match dep with
        | Dep_singleton { dep_loc; inst; daemon; _ } -> (dep_loc, inst, daemon)
        | Dep_group { dep_loc; inst; daemon; _ } -> (dep_loc, inst, daemon)
      in
      if Sset.mem inst !seen then Loc.error loc "duplicate instance name %s" inst;
      seen := Sset.add inst !seen;
      if not (Sset.mem daemon daemon_names) then
        Loc.error loc "instance %s references unknown daemon %s" inst daemon;
      match dep with
      | Dep_singleton { machine; _ } ->
          if machine < 0 then Loc.error loc "negative machine id"
      | Dep_group { count; mach_lo; mach_hi; _ } ->
          if mach_lo < 0 || mach_hi < mach_lo then Loc.error loc "invalid machine range";
          let span = mach_hi - mach_lo + 1 in
          if count <> span then
            Loc.error loc "group %s declares %d members but spans %d machines" inst count
              span)
    deployments;
  {
    singletons =
      List.filter_map
        (function Dep_singleton { inst; _ } -> Some inst | Dep_group _ -> None)
        deployments
      |> Sset.of_list;
    groups =
      List.filter_map
        (function Dep_group { inst; _ } -> Some inst | Dep_singleton _ -> None)
        deployments
      |> Sset.of_list;
  }

let check ?(params = []) program =
  let params =
    List.fold_left (fun acc (name, v) -> Smap.add name v acc) Smap.empty params
  in
  check_unique "daemon" Loc.dummy (List.map (fun d -> d.d_name) program.daemons);
  let deps =
    match program.deployments with
    | [] -> None
    | deployments -> Some (check_deployments program.daemons deployments)
  in
  let daemons = List.map (check_daemon deps ~params) program.daemons in
  { program with daemons }
