type cexpr =
  | C_int of int
  | C_var of int
  | C_app_var of string
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
  | CD_topo of ctopo_sel

type cservice = CSvc_ckpt of cexpr | CSvc_sched | CSvc_disp

type caction =
  | C_goto of int
  | C_send of string * cdest
  | C_assign of int * cexpr
  | C_halt of cservice option
  | C_stop of cservice option
  | C_continue of cservice option
  | C_set_app of string * cexpr
  | C_partition of cdest * cdest option
  | C_heal
  | C_degrade of cdest * cexpr option * cexpr option * cexpr option
      (* loss permille, latency ms, jitter ms *)

type ctransition = {
  trigger : Ast.trigger option;
  conds : ccond list;
  actions : caction list;
}

type cnode = {
  node_id : string;
  always : (int * cexpr) list;
  timer : cexpr option;
  transitions : ctransition list;
}

type t = {
  name : string;
  var_names : string array;
  var_init : (int * cexpr) list;
  nodes : cnode array;
}

let var_count t = Array.length t.var_names

let node_index t id =
  let rec find i =
    if i >= Array.length t.nodes then None
    else if String.equal t.nodes.(i).node_id id then Some i
    else find (i + 1)
  in
  find 0

let rec pp_cexpr ppf = function
  | C_int n -> Format.pp_print_int ppf n
  | C_var slot -> Format.fprintf ppf "v%d" slot
  | C_app_var name -> Format.fprintf ppf "@@%s" name
  | C_binop (op, a, b) ->
      Format.fprintf ppf "(%a %s %a)" pp_cexpr a
        (match op with
        | Ast.Add -> "+"
        | Ast.Sub -> "-"
        | Ast.Mul -> "*"
        | Ast.Div -> "/"
        | Ast.Mod -> "%")
        pp_cexpr b
  | C_random (lo, hi) -> Format.fprintf ppf "random(%a, %a)" pp_cexpr lo pp_cexpr hi

let topo_sel_s = function
  | CSel_switch (tier, e) ->
      Format.asprintf "switch %s[%a]" (Ast.tier_name tier) pp_cexpr e
  | CSel_pod e -> Format.asprintf "pod %a" pp_cexpr e
  | CSel_rack e -> Format.asprintf "rack %a" pp_cexpr e

let dest_s = function
  | CD_instance i -> i
  | CD_indexed (g, e) -> Format.asprintf "%s[%a]" g pp_cexpr e
  | CD_group g -> g
  | CD_sender -> "sender"
  | CD_topo sel -> topo_sel_s sel

let service_s = function
  | CSvc_ckpt e -> Format.asprintf "ckpt[%a]" pp_cexpr e
  | CSvc_sched -> "sched"
  | CSvc_disp -> "disp"

let service_suffix = function None -> "" | Some svc -> " service " ^ service_s svc

let pp_caction ppf = function
  | C_goto n -> Format.fprintf ppf "goto #%d" n
  | C_send (m, CD_group g) -> Format.fprintf ppf "send %s -> %s (broadcast)" m g
  | C_send (m, d) -> Format.fprintf ppf "send %s -> %s" m (dest_s d)
  | C_assign (slot, e) -> Format.fprintf ppf "v%d := %a" slot pp_cexpr e
  | C_halt svc -> Format.fprintf ppf "halt%s" (service_suffix svc)
  | C_stop svc -> Format.fprintf ppf "stop%s" (service_suffix svc)
  | C_continue svc -> Format.fprintf ppf "continue%s" (service_suffix svc)
  | C_set_app (name, e) -> Format.fprintf ppf "set @@%s := %a" name pp_cexpr e
  | C_partition (a, b) ->
      Format.fprintf ppf "partition %s%s" (dest_s a)
        (match b with Some b -> " " ^ dest_s b | None -> " (isolate)")
  | C_heal -> Format.pp_print_string ppf "heal"
  | C_degrade (d, loss, latency, jitter) ->
      let field name = function
        | Some e -> Format.asprintf " %s=%a" name pp_cexpr e
        | None -> ""
      in
      Format.fprintf ppf "degrade %s%s%s%s" (dest_s d) (field "loss" loss)
        (field "latency" latency) (field "jitter" jitter)

let pp_trigger ppf = function
  | Ast.T_timer -> Format.pp_print_string ppf "timer"
  | Ast.T_recv m -> Format.fprintf ppf "?%s" m
  | Ast.T_onload -> Format.pp_print_string ppf "onload"
  | Ast.T_onexit -> Format.pp_print_string ppf "onexit"
  | Ast.T_onerror -> Format.pp_print_string ppf "onerror"
  | Ast.T_before f -> Format.fprintf ppf "before(%s)" f
  | Ast.T_after f -> Format.fprintf ppf "after(%s)" f
  | Ast.T_watch v -> Format.fprintf ppf "watch(%s)" v

let pp ppf t =
  Format.fprintf ppf "@[<v>automaton %s: %d vars, %d nodes@," t.name (var_count t)
    (Array.length t.nodes);
  Array.iteri
    (fun i node ->
      Format.fprintf ppf "@[<v 2>node #%d (%s):" i node.node_id;
      List.iter
        (fun (slot, e) -> Format.fprintf ppf "@,always v%d := %a" slot pp_cexpr e)
        node.always;
      (match node.timer with
      | Some e -> Format.fprintf ppf "@,timer %a" pp_cexpr e
      | None -> ());
      List.iter
        (fun tr ->
          Format.fprintf ppf "@,on %s%s -> %s"
            (match tr.trigger with
            | Some trig -> Format.asprintf "%a" pp_trigger trig
            | None -> "entry")
            (if tr.conds = [] then ""
             else Format.asprintf " [%d conds]" (List.length tr.conds))
            (String.concat ", "
               (List.map (Format.asprintf "%a" pp_caction) tr.actions)))
        node.transitions;
      Format.fprintf ppf "@]@,")
    t.nodes;
  Format.pp_close_box ppf ()
