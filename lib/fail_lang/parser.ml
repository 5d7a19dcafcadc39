open Ast

type state = { toks : Token.located array; mutable idx : int }

let cur st = st.toks.(st.idx)
let cur_tok st = (cur st).Token.tok
let cur_loc st = (cur st).Token.loc

let advance st = if st.idx < Array.length st.toks - 1 then st.idx <- st.idx + 1

let expect st tok =
  if cur_tok st = tok then advance st
  else
    Loc.error (cur_loc st) "expected %s, found %s" (Token.to_string tok)
      (Token.to_string (cur_tok st))

let expect_ident st =
  match cur_tok st with
  | Token.IDENT s ->
      advance st;
      s
  | t -> Loc.error (cur_loc st) "expected identifier, found %s" (Token.to_string t)

let expect_int st =
  match cur_tok st with
  | Token.INT n ->
      advance st;
      n
  | t -> Loc.error (cur_loc st) "expected integer, found %s" (Token.to_string t)

(* node identifiers may be numeric ("node 1:") or symbolic *)
let expect_node_id st =
  match cur_tok st with
  | Token.INT n ->
      advance st;
      string_of_int n
  | Token.IDENT s ->
      advance st;
      s
  | t -> Loc.error (cur_loc st) "expected node identifier, found %s" (Token.to_string t)

(* ------------------------------------------------------------------ *)
(* Expressions *)

let rec parse_expr_prec st =
  let lhs = parse_term st in
  let rec more lhs =
    match cur_tok st with
    | Token.PLUS ->
        advance st;
        more (Binop (Add, lhs, parse_term st))
    | Token.MINUS ->
        advance st;
        more (Binop (Sub, lhs, parse_term st))
    | _ -> lhs
  in
  more lhs

and parse_term st =
  let lhs = parse_factor st in
  let rec more lhs =
    match cur_tok st with
    | Token.STAR ->
        advance st;
        more (Binop (Mul, lhs, parse_factor st))
    | Token.SLASH ->
        advance st;
        more (Binop (Div, lhs, parse_factor st))
    | Token.PERCENT ->
        advance st;
        more (Binop (Mod, lhs, parse_factor st))
    | _ -> lhs
  in
  more lhs

and parse_factor st =
  match cur_tok st with
  | Token.INT n ->
      advance st;
      Int n
  | Token.MINUS ->
      advance st;
      Binop (Sub, Int 0, parse_factor st)
  | Token.IDENT s ->
      advance st;
      Var s
  | Token.AT ->
      advance st;
      App_var (expect_ident st)
  | Token.KW_random ->
      advance st;
      expect st Token.LPAREN;
      let lo = parse_expr_prec st in
      expect st Token.COMMA;
      let hi = parse_expr_prec st in
      expect st Token.RPAREN;
      Random (lo, hi)
  | Token.LPAREN ->
      advance st;
      let e = parse_expr_prec st in
      expect st Token.RPAREN;
      e
  | t -> Loc.error (cur_loc st) "expected expression, found %s" (Token.to_string t)

let parse_relop st =
  match cur_tok st with
  | Token.EQEQ ->
      advance st;
      Eq
  | Token.NEQ ->
      advance st;
      Ne
  | Token.LE ->
      advance st;
      Le
  | Token.GE ->
      advance st;
      Ge
  | Token.LT ->
      advance st;
      Lt
  | Token.GT ->
      advance st;
      Gt
  | t -> Loc.error (cur_loc st) "expected comparison operator, found %s" (Token.to_string t)

(* ------------------------------------------------------------------ *)
(* Guards *)

let parse_paren_ident st =
  expect st Token.LPAREN;
  let id = expect_ident st in
  expect st Token.RPAREN;
  id

let parse_gatom st =
  match cur_tok st with
  | Token.KW_timer ->
      advance st;
      `Trigger T_timer
  | Token.QUESTION ->
      advance st;
      `Trigger (T_recv (expect_ident st))
  | Token.KW_onload ->
      advance st;
      `Trigger T_onload
  | Token.KW_onexit ->
      advance st;
      `Trigger T_onexit
  | Token.KW_onerror ->
      advance st;
      `Trigger T_onerror
  | Token.KW_before ->
      advance st;
      `Trigger (T_before (parse_paren_ident st))
  | Token.KW_after ->
      advance st;
      `Trigger (T_after (parse_paren_ident st))
  | Token.KW_watch ->
      advance st;
      `Trigger (T_watch (parse_paren_ident st))
  | _ ->
      let lhs = parse_expr_prec st in
      let op = parse_relop st in
      let rhs = parse_expr_prec st in
      `Cond (op, lhs, rhs)

let parse_guard st =
  let loc = cur_loc st in
  let atoms =
    let rec collect acc =
      let a = parse_gatom st in
      if cur_tok st = Token.AND then begin
        advance st;
        collect (a :: acc)
      end
      else List.rev (a :: acc)
    in
    collect []
  in
  let triggers =
    List.filter_map (function `Trigger t -> Some t | `Cond _ -> None) atoms
  in
  let conds = List.filter_map (function `Cond c -> Some c | `Trigger _ -> None) atoms in
  match triggers with
  | [] -> { trigger = None; conds }
  | [ t ] -> { trigger = Some t; conds }
  | _ :: _ :: _ -> Loc.error loc "a guard may contain at most one trigger"

(* ------------------------------------------------------------------ *)
(* Actions *)

let parse_dest st =
  match cur_tok st with
  | Token.KW_sender ->
      advance st;
      D_sender
  | Token.KW_switch ->
      (* switch <tier>[<expr>] — the tier name is validated here so the
         AST carries a closed variant, not a string. *)
      advance st;
      let loc = cur_loc st in
      let tier_s = expect_ident st in
      let tier =
        match tier_of_name tier_s with
        | Some t -> t
        | None ->
            Loc.error loc "unknown switch tier %s (expected edge, agg or core)" tier_s
      in
      expect st Token.LBRACKET;
      let e = parse_expr_prec st in
      expect st Token.RBRACKET;
      D_topo (Sel_switch (tier, e))
  | Token.KW_pod ->
      advance st;
      D_topo (Sel_pod (parse_factor st))
  | Token.KW_rack ->
      advance st;
      D_topo (Sel_rack (parse_factor st))
  | Token.IDENT name ->
      advance st;
      if cur_tok st = Token.LBRACKET then begin
        advance st;
        let e = parse_expr_prec st in
        expect st Token.RBRACKET;
        D_indexed (name, e)
      end
      else D_instance name
  | t -> Loc.error (cur_loc st) "expected message destination, found %s" (Token.to_string t)

(* Lookahead for [degrade] fields: an IDENT immediately followed by [=]
   is a field assignment, anything else ends the field list (so the
   comma-separated action list keeps parsing normally). *)
let peek_tok st =
  if st.idx + 1 < Array.length st.toks then st.toks.(st.idx + 1).Token.tok else Token.EOF

let parse_degrade_fields st =
  let loss = ref None and latency = ref None and jitter = ref None in
  let rec loop () =
    match cur_tok st with
    | Token.IDENT name when peek_tok st = Token.ASSIGN ->
        let loc = cur_loc st in
        let slot =
          match name with
          | "loss" -> loss
          | "latency" -> latency
          | "jitter" -> jitter
          | _ ->
              Loc.error loc "unknown degrade field %s (expected loss, latency or jitter)"
                name
        in
        advance st;
        advance st;
        let e = parse_expr_prec st in
        (match !slot with
        | Some _ -> Loc.error loc "duplicate degrade field %s" name
        | None -> slot := Some e);
        loop ()
    | _ -> ()
  in
  loop ();
  (!loss, !latency, !jitter)

(* Optional service selector after halt/stop/continue:
   [service ckpt[expr]], [service sched], [service disp]. The service
   names are plain identifiers — only [service] itself is a keyword. *)
let parse_service_opt st =
  if cur_tok st <> Token.KW_service then None
  else begin
    advance st;
    let loc = cur_loc st in
    match expect_ident st with
    | "ckpt" ->
        expect st Token.LBRACKET;
        let e = parse_expr_prec st in
        expect st Token.RBRACKET;
        Some (Svc_ckpt e)
    | "sched" -> Some Svc_sched
    | "disp" -> Some Svc_disp
    | name -> Loc.error loc "unknown service %s (expected ckpt, sched or disp)" name
  end

let parse_action st =
  match cur_tok st with
  | Token.KW_goto ->
      advance st;
      A_goto (expect_node_id st)
  | Token.KW_partition ->
      advance st;
      let a = parse_dest st in
      let b =
        match cur_tok st with
        | Token.IDENT _ | Token.KW_sender | Token.KW_switch | Token.KW_pod | Token.KW_rack
          ->
            Some (parse_dest st)
        | _ -> None
      in
      A_partition (a, b)
  | Token.KW_heal ->
      advance st;
      A_heal
  | Token.KW_degrade ->
      advance st;
      let deg_target = parse_dest st in
      let deg_loss, deg_latency, deg_jitter = parse_degrade_fields st in
      A_degrade { deg_target; deg_loss; deg_latency; deg_jitter }
  | Token.BANG ->
      advance st;
      let msg = expect_ident st in
      expect st Token.LPAREN;
      let dest = parse_dest st in
      expect st Token.RPAREN;
      A_send (msg, dest)
  | Token.KW_halt ->
      advance st;
      A_halt (parse_service_opt st)
  | Token.KW_stop ->
      advance st;
      A_stop (parse_service_opt st)
  | Token.KW_continue ->
      advance st;
      A_continue (parse_service_opt st)
  | Token.KW_set ->
      advance st;
      let name = expect_ident st in
      expect st Token.ASSIGN;
      A_set_app (name, parse_expr_prec st)
  | Token.IDENT name ->
      advance st;
      expect st Token.ASSIGN;
      A_assign (name, parse_expr_prec st)
  | t -> Loc.error (cur_loc st) "expected action, found %s" (Token.to_string t)

let parse_actions st =
  let rec collect acc =
    let a = parse_action st in
    if cur_tok st = Token.COMMA then begin
      advance st;
      collect (a :: acc)
    end
    else List.rev (a :: acc)
  in
  collect []

(* ------------------------------------------------------------------ *)
(* Nodes and daemons *)

let parse_transition st =
  let t_loc = cur_loc st in
  let guard = parse_guard st in
  expect st Token.ARROW;
  let actions = parse_actions st in
  expect st Token.SEMI;
  { t_loc; guard; actions }

let node_item_start tok =
  match tok with Token.RBRACE | Token.KW_node | Token.EOF -> false | _ -> true

let parse_node st =
  let n_loc = cur_loc st in
  expect st Token.KW_node;
  let n_id = expect_node_id st in
  expect st Token.COLON;
  let always = ref [] and timer = ref None and transitions = ref [] in
  while node_item_start (cur_tok st) do
    match cur_tok st with
    | Token.KW_always ->
        advance st;
        expect st Token.KW_int;
        let name = expect_ident st in
        expect st Token.ASSIGN;
        let e = parse_expr_prec st in
        expect st Token.SEMI;
        always := (name, e) :: !always
    | Token.KW_time ->
        let loc = cur_loc st in
        advance st;
        let name = expect_ident st in
        expect st Token.ASSIGN;
        let e = parse_expr_prec st in
        expect st Token.SEMI;
        (match !timer with
        | Some _ -> Loc.error loc "node %s declares more than one timer" n_id
        | None -> timer := Some (name, e))
    | _ -> transitions := parse_transition st :: !transitions
  done;
  {
    n_loc;
    n_id;
    n_always = List.rev !always;
    n_timer = !timer;
    n_transitions = List.rev !transitions;
  }

let parse_daemon st =
  let d_loc = cur_loc st in
  expect st Token.KW_daemon;
  let d_name = expect_ident st in
  expect st Token.LBRACE;
  let vars = ref [] in
  while cur_tok st = Token.KW_int do
    advance st;
    let name = expect_ident st in
    expect st Token.ASSIGN;
    let e = parse_expr_prec st in
    expect st Token.SEMI;
    vars := (name, e) :: !vars
  done;
  let nodes = ref [] in
  while cur_tok st = Token.KW_node do
    nodes := parse_node st :: !nodes
  done;
  (match !nodes with
  | [] -> Loc.error d_loc "daemon %s has no nodes" d_name
  | _ -> ());
  expect st Token.RBRACE;
  { d_loc; d_name; d_vars = List.rev !vars; d_nodes = List.rev !nodes }

let parse_deployment st =
  let dep_loc = cur_loc st in
  let inst = expect_ident st in
  let count =
    if cur_tok st = Token.LBRACKET then begin
      advance st;
      let n = expect_int st in
      expect st Token.RBRACKET;
      Some n
    end
    else None
  in
  expect st Token.COLON;
  let daemon = expect_ident st in
  expect st Token.KW_on;
  let dep =
    match cur_tok st with
    | Token.KW_machine ->
        advance st;
        let machine = expect_int st in
        (match count with
        | Some _ ->
            Loc.error dep_loc "instance %s has a group size but a single machine" inst
        | None -> ());
        Dep_singleton { dep_loc; inst; daemon; machine }
    | Token.KW_machines ->
        advance st;
        let lo = expect_int st in
        expect st Token.DOTDOT;
        let hi = expect_int st in
        let count =
          match count with
          | Some c -> c
          | None -> hi - lo + 1
        in
        Dep_group { dep_loc; inst; count; daemon; mach_lo = lo; mach_hi = hi }
    | t ->
        Loc.error (cur_loc st) "expected 'machine' or 'machines', found %s"
          (Token.to_string t)
  in
  expect st Token.SEMI;
  dep

let parse src =
  let toks = Array.of_list (Lexer.tokenize src) in
  let st = { toks; idx = 0 } in
  let daemons = ref [] and deployments = ref [] in
  let rec loop () =
    match cur_tok st with
    | Token.EOF -> ()
    | Token.KW_daemon ->
        daemons := parse_daemon st :: !daemons;
        loop ()
    | Token.IDENT _ ->
        deployments := parse_deployment st :: !deployments;
        loop ()
    | t ->
        Loc.error (cur_loc st) "expected a daemon or a deployment, found %s"
          (Token.to_string t)
  in
  loop ();
  { daemons = List.rev !daemons; deployments = List.rev !deployments }

let parse_expr src =
  let toks = Array.of_list (Lexer.tokenize src) in
  let st = { toks; idx = 0 } in
  let e = parse_expr_prec st in
  expect st Token.EOF;
  e
