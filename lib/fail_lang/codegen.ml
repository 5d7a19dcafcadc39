let dump (plan : Compile.plan) =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (_, automaton) ->
      Buffer.add_string buf (Format.asprintf "%a@." Automaton.pp automaton))
    plan.Compile.automata;
  List.iter
    (fun dep -> Buffer.add_string buf (Format.asprintf "%a@." Pp.pp_deployment dep))
    plan.Compile.deployments;
  Buffer.contents buf

let escape s =
  String.concat ""
    (List.map
       (fun c -> match c with '"' -> "\\\"" | '\\' -> "\\\\" | c -> String.make 1 c)
       (List.init (String.length s) (String.get s)))

let to_dot (a : Automaton.t) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "digraph %s {\n  rankdir=LR;\n" (escape a.name));
  Array.iteri
    (fun i (node : Automaton.cnode) ->
      let decorations =
        (match node.timer with Some _ -> [ "timer" ] | None -> [])
        @ if node.always = [] then [] else [ "always" ]
      in
      let label =
        match decorations with
        | [] -> node.node_id
        | ds -> Printf.sprintf "%s\\n[%s]" node.node_id (String.concat "," ds)
      in
      Buffer.add_string buf
        (Printf.sprintf "  n%d [label=\"%s\"%s];\n" i (escape label)
           (if i = 0 then ", shape=doublecircle" else "")))
    a.nodes;
  Array.iteri
    (fun i (node : Automaton.cnode) ->
      List.iter
        (fun (tr : Automaton.ctransition) ->
          (* The last goto determines the destination; a transition
             without goto stays in place. *)
          let target =
            List.fold_left
              (fun acc action ->
                match action with Automaton.C_goto t -> Some t | _ -> acc)
              None tr.actions
          in
          let label =
            match tr.trigger with
            | Some t -> Format.asprintf "%a" Automaton.pp_trigger t
            | None -> "entry"
          in
          let dst = match target with Some t -> t | None -> i in
          Buffer.add_string buf
            (Printf.sprintf "  n%d -> n%d [label=\"%s\"];\n" i dst (escape label)))
        node.transitions)
    a.nodes;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Fault-plan scenario generation (the explorer's replay format). *)

module Scenario = struct
  (* The fault kinds, their actions and their inverse live in [Fault];
     this module lays injections out as coordinator and controller
     automata and reads them back. *)
  include Fault.Types

  let loc = Loc.dummy

  let needs_reload injections =
    List.exists
      (fun i -> match i.anchor with On_reload _ -> true | After _ -> false)
      injections

  (* Controller thaw durations: service freezes thaw from a coordinator
     timer node instead, so they contribute none. *)
  let thaws injections =
    List.sort_uniq compare (List.filter_map (fun i -> Fault.thaw i.kind) injections)

  (* Every controller registration is forwarded to the coordinator as a
     [reg] message; [regs] counts them so [On_reload { nth; _ }] can wait
     for the [nth] cumulative registration (initial launches included). *)
  let count_reg =
    {
      Ast.t_loc = loc;
      guard = { Ast.trigger = Some (Ast.T_recv "reg"); conds = [] };
      actions = [ Ast.A_assign ("regs", Ast.Binop (Ast.Add, Ast.Var "regs", Ast.Int 1)) ];
    }

  let fire_name i = Printf.sprintf "f%d" (i + 1)

  let entry_name i inj =
    match inj.anchor with
    | After _ -> fire_name i
    | On_reload _ -> Printf.sprintf "w%d" (i + 1)

  (* Coordinator: one chain of nodes, one (or two, for reload-anchored)
     per injection, ending in [done]. Timers arm on node entry, so an
     [After d] delay is relative to the previous fault having fired. *)
  let plan_daemon ~with_reg injections =
    let n = List.length injections in
    let next_entry i =
      if i + 1 >= n then "done" else entry_name (i + 1) (List.nth injections (i + 1))
    in
    let counting = if with_reg then [ count_reg ] else [] in
    let nodes =
      List.concat
        (List.mapi
           (fun i inj ->
             (* The fire node's actions plus any follow-up node: a kind
                the coordinator undoes itself moves to a thaw node whose
                timer runs the undo action. *)
             let fire_actions, extra_nodes =
               match Fault.inject ~group:"G1" ~machine:inj.machine inj.kind with
               | action, None -> ([ action; Ast.A_goto (next_entry i) ], [])
               | action, Some (thaw, undo) ->
                   let thaw_id = Printf.sprintf "s%d" (i + 1) in
                   let thaw_node =
                     {
                       Ast.n_loc = loc;
                       n_id = thaw_id;
                       n_always = [];
                       n_timer = Some ("thaw", Ast.Int thaw);
                       n_transitions =
                         {
                           Ast.t_loc = loc;
                           guard = { Ast.trigger = Some Ast.T_timer; conds = [] };
                           actions = [ undo; Ast.A_goto (next_entry i) ];
                         }
                         :: counting;
                     }
                   in
                   ([ action; Ast.A_goto thaw_id ], [ thaw_node ])
             in
             let fire delay =
               {
                 Ast.n_loc = loc;
                 n_id = fire_name i;
                 n_always = [];
                 n_timer = Some ("t", Ast.Int delay);
                 n_transitions =
                   {
                     Ast.t_loc = loc;
                     guard = { Ast.trigger = Some Ast.T_timer; conds = [] };
                     actions = fire_actions;
                   }
                   :: counting;
               }
             in
             match inj.anchor with
             | After delay -> fire delay :: extra_nodes
             | On_reload { nth; delay } ->
                 let arm =
                   {
                     Ast.t_loc = loc;
                     guard =
                       {
                         Ast.trigger = Some (Ast.T_recv "reg");
                         conds = [ (Ast.Ge, Ast.Var "regs", Ast.Int (nth - 1)) ];
                       };
                     actions =
                       [
                         Ast.A_assign ("regs", Ast.Binop (Ast.Add, Ast.Var "regs", Ast.Int 1));
                         Ast.A_goto (fire_name i);
                       ];
                   }
                 in
                 {
                   Ast.n_loc = loc;
                   n_id = Printf.sprintf "w%d" (i + 1);
                   n_always = [];
                   n_timer = None;
                   n_transitions = arm :: counting;
                 }
                 :: fire delay :: extra_nodes)
           injections)
    in
    let done_node =
      { Ast.n_loc = loc; n_id = "done"; n_always = []; n_timer = None; n_transitions = counting }
    in
    {
      Ast.d_loc = loc;
      d_name = "PLAN";
      d_vars = (if with_reg then [ ("regs", Ast.Int 0) ] else []);
      d_nodes = nodes @ [ done_node ];
    }

  (* Per-machine controller: [idle] (no process) / [live] / one frozen
     node per distinct thaw duration. Unmatched messages are dropped by
     the FCI runtime, so a [kill] aimed at an idle controller is a no-op
     (the fault is wasted, exactly like shooting a spare host). *)
  let node_daemon ~with_reg ~thaws =
    let on_load =
      {
        Ast.t_loc = loc;
        guard = { Ast.trigger = Some Ast.T_onload; conds = [] };
        actions =
          (Ast.A_continue None
           :: (if with_reg then [ Ast.A_send ("reg", Ast.D_instance "P1") ] else []))
          @ [ Ast.A_goto "live" ];
      }
    in
    let to_idle trigger =
      {
        Ast.t_loc = loc;
        guard = { Ast.trigger = Some trigger; conds = [] };
        actions = [ Ast.A_goto "idle" ];
      }
    in
    let on_kill =
      {
        Ast.t_loc = loc;
        guard = { Ast.trigger = Some (Ast.T_recv (Fault.tag Kill)); conds = [] };
        actions = [ Ast.A_halt None; Ast.A_goto "idle" ];
      }
    in
    let freeze_transitions =
      List.map
        (fun thaw ->
          {
            Ast.t_loc = loc;
            guard = { Ast.trigger = Some (Ast.T_recv (Fault.tag (Freeze { thaw }))); conds = [] };
            actions = [ Ast.A_stop None; Ast.A_goto (Printf.sprintf "frozen%d" thaw) ];
          })
        thaws
    in
    let idle =
      { Ast.n_loc = loc; n_id = "idle"; n_always = []; n_timer = None; n_transitions = [ on_load ] }
    in
    let live =
      {
        Ast.n_loc = loc;
        n_id = "live";
        n_always = [];
        n_timer = None;
        n_transitions =
          [ to_idle Ast.T_onexit; to_idle Ast.T_onerror; on_load; on_kill ] @ freeze_transitions;
      }
    in
    let frozen =
      List.map
        (fun thaw ->
          {
            Ast.n_loc = loc;
            n_id = Printf.sprintf "frozen%d" thaw;
            n_always = [];
            n_timer = Some ("thaw", Ast.Int thaw);
            n_transitions =
              [
                {
                  Ast.t_loc = loc;
                  guard = { Ast.trigger = Some Ast.T_timer; conds = [] };
                  actions = [ Ast.A_continue None; Ast.A_goto "live" ];
                };
                to_idle Ast.T_onexit;
                to_idle Ast.T_onerror;
                on_kill;
              ];
          })
        thaws
    in
    { Ast.d_loc = loc; d_name = "NODE"; d_vars = []; d_nodes = (idle :: live :: frozen) }

  let program ~n_machines injections =
    let with_reg = needs_reload injections in
    {
      Ast.daemons = [ plan_daemon ~with_reg injections; node_daemon ~with_reg ~thaws:(thaws injections) ];
      deployments =
        [
          Ast.Dep_singleton { dep_loc = loc; inst = "P1"; daemon = "PLAN"; machine = n_machines };
          Ast.Dep_group
            {
              dep_loc = loc;
              inst = "G1";
              count = n_machines;
              daemon = "NODE";
              mach_lo = 0;
              mach_hi = n_machines - 1;
            };
        ];
    }

  let source ~n_machines injections = Pp.program_to_string (program ~n_machines injections)

  (* ---- parse-back ------------------------------------------------- *)

  let injections_of_program (p : Ast.program) =
    let ( let* ) = Result.bind in
    let* group =
      match
        List.filter_map
          (function Ast.Dep_group { count; mach_lo; _ } -> Some (count, mach_lo) | _ -> None)
          p.Ast.deployments
      with
      | [ (count, 0) ] -> Ok count
      | [ (_, lo) ] -> Error (Printf.sprintf "controller group starts at machine %d, not 0" lo)
      | _ -> Error "expected exactly one controller group deployment"
    in
    let* plan_name =
      match
        List.filter_map
          (function Ast.Dep_singleton { daemon; _ } -> Some daemon | _ -> None)
          p.Ast.deployments
      with
      | [ name ] -> Ok name
      | _ -> Error "expected exactly one coordinator deployment"
    in
    let* plan =
      match List.find_opt (fun d -> String.equal d.Ast.d_name plan_name) p.Ast.daemons with
      | Some d -> Ok d
      | None -> Error (Printf.sprintf "coordinator daemon %s not found" plan_name)
    in
    (* Structural walk over the coordinator's nodes, in declaration
       order: a reload-wait node carries the [nth] threshold of the fire
       node that follows it; any other shape is rejected.  A fire node's
       leading timer action is inverted by [Fault.of_inject]. *)
    let fire_of_node node =
      match node.Ast.n_timer with
      | None -> None
      | Some (_, delay_e) ->
          List.find_map
            (fun t ->
              match (t.Ast.guard.Ast.trigger, t.Ast.actions) with
              | Some Ast.T_timer, action :: _ -> (
                  match (Fault.of_inject action, Fault.const delay_e) with
                  | Some injected, Some delay -> Some (injected, delay)
                  | _ -> None)
              | _ -> None)
            node.Ast.n_transitions
    in
    let wait_of_node node =
      if Option.is_some node.Ast.n_timer then None
      else
        List.find_map
          (fun t ->
            match (t.Ast.guard.Ast.trigger, t.Ast.guard.Ast.conds, t.Ast.actions) with
            | Some (Ast.T_recv _), [ (Ast.Ge, _, nth_e) ], actions
              when List.exists (function Ast.A_goto _ -> true | _ -> false) actions ->
                Option.map (fun k -> k + 1) (Fault.const nth_e)
            | _ -> None)
          node.Ast.n_transitions
    in
    let is_terminal node =
      Option.is_none node.Ast.n_timer
      && List.for_all
           (fun t ->
             match t.Ast.guard.Ast.trigger with Some (Ast.T_recv _) -> true | _ -> false)
           node.Ast.n_transitions
    in
    (* A service thaw node: timer whose expiry resumes the service. *)
    let thaw_of_node node =
      match node.Ast.n_timer with
      | None -> None
      | Some (_, delay_e) ->
          if
            List.exists
              (fun t ->
                match (t.Ast.guard.Ast.trigger, t.Ast.actions) with
                | Some Ast.T_timer, Ast.A_continue (Some _) :: _ -> true
                | _ -> false)
              node.Ast.n_transitions
          then Fault.const delay_e
          else None
    in
    let* injections =
      let rec walk pending acc = function
        | [] -> (
            match pending with
            | None -> Ok (List.rev acc)
            | Some _ -> Error "reload-wait node not followed by a fault node")
        | node :: rest -> (
            match fire_of_node node with
            | Some (injected, delay) -> (
                let anchor =
                  match pending with
                  | Some nth -> On_reload { nth; delay }
                  | None -> After delay
                in
                match injected with
                | Fault.Injected (machine, kind) ->
                    walk None ({ machine; anchor; kind } :: acc) rest
                | Fault.Until_thaw (machine, kind_of_thaw) -> (
                    (* Consume the paired thaw node that follows. *)
                    match Option.bind (List.nth_opt rest 0) thaw_of_node with
                    | Some thaw ->
                        walk None
                          ({ machine; anchor; kind = kind_of_thaw thaw } :: acc)
                          (List.tl rest)
                    | None -> Error "service stop not followed by a thaw node"))
            | None -> (
                match wait_of_node node with
                | Some nth ->
                    if Option.is_some pending then Error "two consecutive reload-wait nodes"
                    else walk (Some nth) acc rest
                | None ->
                    if is_terminal node then walk pending acc rest
                    else Error (Printf.sprintf "unrecognized coordinator node %s" node.Ast.n_id)))
      in
      walk None [] plan.Ast.d_nodes
    in
    Ok (group, injections)
end
