(* Tests for the FAIL language: lexer, parser, pretty-printer round-trip,
   semantic analysis, compiler and the paper's scenario listings. *)

open Fail_lang

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let check_string = check Alcotest.string

let tokens_of src = List.map (fun t -> t.Token.tok) (Lexer.tokenize src)

(* ------------------------------------------------------------------ *)
(* Lexer *)

let test_lexer_symbols () =
  check_bool "arrow and friends" true
    (tokens_of "-> != <> <= >= && .. = =="
    = Token.[ ARROW; NEQ; NEQ; LE; GE; AND; DOTDOT; ASSIGN; EQEQ; EOF ])

let test_lexer_keywords () =
  check_bool "keywords" true
    (tokens_of "Daemon daemon node onload onexit onerror before after goto halt stop continue"
    = Token.
        [
          KW_daemon;
          KW_daemon;
          KW_node;
          KW_onload;
          KW_onexit;
          KW_onerror;
          KW_before;
          KW_after;
          KW_goto;
          KW_halt;
          KW_stop;
          KW_continue;
          EOF;
        ])

let test_lexer_idents_ints () =
  check_bool "mix" true
    (tokens_of "G1[ran] 42 nb_crash"
    = Token.[ IDENT "G1"; LBRACKET; IDENT "ran"; RBRACKET; INT 42; IDENT "nb_crash"; EOF ])

let test_lexer_comments () =
  check_bool "comments skipped" true
    (tokens_of "1 // line comment\n /* block \n comment */ 2" = Token.[ INT 1; INT 2; EOF ])

let test_lexer_locations () =
  let toks = Lexer.tokenize "a\n  b" in
  match toks with
  | [ a; b; _eof ] ->
      check_int "a line" 1 a.Token.loc.Loc.line;
      check_int "a col" 1 a.Token.loc.Loc.col;
      check_int "b line" 2 b.Token.loc.Loc.line;
      check_int "b col" 3 b.Token.loc.Loc.col
  | _ -> Alcotest.fail "unexpected token count"

let test_lexer_illegal () =
  (try
     ignore (Lexer.tokenize "a $ b");
     Alcotest.fail "expected error"
   with Loc.Error (_, msg) -> check_bool "mentions char" true (String.length msg > 0));
  try
    ignore (Lexer.tokenize "/* unterminated");
    Alcotest.fail "expected error"
  with Loc.Error (_, msg) ->
    check_bool "unterminated" true
      (String.length msg >= 12 && String.sub msg 0 12 = "unterminated")

(* ------------------------------------------------------------------ *)
(* Parser *)

let parse_one_daemon src =
  let p = Parser.parse src in
  match p.Ast.daemons with [ d ] -> d | _ -> Alcotest.fail "expected one daemon"

let test_parse_minimal () =
  let d = parse_one_daemon "Daemon D { node 1: }" in
  check_string "name" "D" d.Ast.d_name;
  check_int "nodes" 1 (List.length d.Ast.d_nodes)

let test_parse_expr_precedence () =
  let e = Parser.parse_expr "1 + 2 * 3" in
  check_bool "mul binds tighter" true
    (Ast.equal_expr e (Ast.Binop (Ast.Add, Ast.Int 1, Ast.Binop (Ast.Mul, Ast.Int 2, Ast.Int 3))));
  let e = Parser.parse_expr "(1 + 2) * 3" in
  check_bool "parens" true
    (Ast.equal_expr e (Ast.Binop (Ast.Mul, Ast.Binop (Ast.Add, Ast.Int 1, Ast.Int 2), Ast.Int 3)))

let test_parse_expr_assoc () =
  let e = Parser.parse_expr "10 - 3 - 2" in
  check_bool "left assoc" true
    (Ast.equal_expr e (Ast.Binop (Ast.Sub, Ast.Binop (Ast.Sub, Ast.Int 10, Ast.Int 3), Ast.Int 2)))

let test_parse_transition () =
  let d =
    parse_one_daemon
      "Daemon D { node 1: ?ok && nb > 1 -> !crash(G1[ran]), nb = nb - 1, goto 2; node 2: }"
  in
  let n = List.hd d.Ast.d_nodes in
  match n.Ast.n_transitions with
  | [ t ] ->
      check_bool "trigger" true (t.Ast.guard.trigger = Some (Ast.T_recv "ok"));
      check_int "conds" 1 (List.length t.Ast.guard.conds);
      check_int "actions" 3 (List.length t.Ast.actions)
  | _ -> Alcotest.fail "expected one transition"

let test_parse_timer_always () =
  let d =
    parse_one_daemon
      "Daemon D { node 1: always int ran = FAIL_RANDOM(0, 52); time g_timer = 50; timer -> \
       goto 1; }"
  in
  let n = List.hd d.Ast.d_nodes in
  check_int "always" 1 (List.length n.Ast.n_always);
  check_bool "timer" true (n.Ast.n_timer <> None)

let test_parse_two_timers_rejected () =
  match Compile.compile_source "Daemon D { node 1: time a = 1; time b = 2; }" with
  | Error msg -> check_bool "mentions timer" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "expected error"

let test_parse_two_triggers_rejected () =
  match Compile.compile_source "Daemon D { node 1: onload && onexit -> goto 1; }" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected error"

let test_parse_deployment () =
  let p = Parser.parse "Daemon D { node 1: } P1 : D on machine 53; G1[53] : D on machines 0 .. 52;" in
  check_int "two deployments" 2 (List.length p.Ast.deployments);
  match p.Ast.deployments with
  | [ Ast.Dep_singleton s; Ast.Dep_group g ] ->
      check_string "inst" "P1" s.inst;
      check_int "machine" 53 s.machine;
      check_int "count" 53 g.count;
      check_int "lo" 0 g.mach_lo;
      check_int "hi" 52 g.mach_hi
  | _ -> Alcotest.fail "unexpected deployment shapes"

let test_parse_sender_dest () =
  let d = parse_one_daemon "Daemon D { node 1: ?waveok -> !crash(FAIL_SENDER), goto 1; }" in
  let n = List.hd d.Ast.d_nodes in
  match (List.hd n.Ast.n_transitions).Ast.actions with
  | [ Ast.A_send ("crash", Ast.D_sender); Ast.A_goto "1" ] -> ()
  | _ -> Alcotest.fail "expected sender destination"

let test_parse_before () =
  let d = parse_one_daemon "Daemon D { node 4: before(localMPI_setCommand) -> halt, goto 5; node 5: }" in
  let n = List.hd d.Ast.d_nodes in
  check_bool "before trigger" true
    ((List.hd n.Ast.n_transitions).Ast.guard.trigger
    = Some (Ast.T_before "localMPI_setCommand"))

let test_parse_set_and_watch () =
  let d =
    parse_one_daemon
      "Daemon D { node 1: watch(progress) && @progress > 10 -> set speed = 2, goto 1; }"
  in
  let n = List.hd d.Ast.d_nodes in
  let t = List.hd n.Ast.n_transitions in
  check_bool "watch trigger" true (t.Ast.guard.trigger = Some (Ast.T_watch "progress"));
  match t.Ast.actions with
  | [ Ast.A_set_app ("speed", Ast.Int 2); Ast.A_goto "1" ] -> ()
  | _ -> Alcotest.fail "expected set action"

let test_parse_net_actions () =
  let p =
    Parser.parse
      "Daemon D { node 1: timer -> partition G1[2], goto 2; time t = 5;\n\
      \ node 2: timer -> degrade G1[3] loss = 100 latency = 2, goto 3; time t = 1;\n\
      \ node 3: timer -> partition G1[0] G1[1], heal; time t = 1; }"
  in
  let d = List.hd p.Ast.daemons in
  let actions n = (List.hd (List.nth d.Ast.d_nodes n).Ast.n_transitions).Ast.actions in
  (match actions 0 with
  | [ Ast.A_partition (Ast.D_indexed ("G1", Ast.Int 2), None); Ast.A_goto "2" ] -> ()
  | _ -> Alcotest.fail "expected one-sided partition");
  (match actions 1 with
  | [ Ast.A_degrade d; Ast.A_goto "3" ] ->
      check_bool "loss" true (d.Ast.deg_loss = Some (Ast.Int 100));
      check_bool "latency" true (d.Ast.deg_latency = Some (Ast.Int 2));
      check_bool "jitter" true (d.Ast.deg_jitter = None)
  | _ -> Alcotest.fail "expected degrade");
  match actions 2 with
  | [ Ast.A_partition (_, Some (Ast.D_indexed ("G1", Ast.Int 1))); Ast.A_heal ] -> ()
  | _ -> Alcotest.fail "expected two-sided partition then heal"

let test_parse_topo_dests () =
  let p =
    Parser.parse
      "Daemon D { node 1: timer -> partition switch agg[N + 1], goto 2; time t = 5;\n\
      \ node 2: timer -> partition pod 1, goto 3; time t = 1;\n\
      \ node 3: timer -> degrade rack (R - 1) loss = 100, heal; time t = 1; }"
  in
  let d = List.hd p.Ast.daemons in
  let actions n = (List.hd (List.nth d.Ast.d_nodes n).Ast.n_transitions).Ast.actions in
  (match actions 0 with
  | [
   Ast.A_partition
     (Ast.D_topo (Ast.Sel_switch (Ast.Tier_agg, Ast.Binop (Ast.Add, Ast.Var "N", Ast.Int 1))), None);
   Ast.A_goto "2";
  ] ->
      ()
  | _ -> Alcotest.fail "expected switch partition with expression index");
  (match actions 1 with
  | [ Ast.A_partition (Ast.D_topo (Ast.Sel_pod (Ast.Int 1)), None); Ast.A_goto "3" ] -> ()
  | _ -> Alcotest.fail "expected pod partition");
  match actions 2 with
  | [ Ast.A_degrade dg; Ast.A_heal ] -> (
      match dg.Ast.deg_target with
      | Ast.D_topo (Ast.Sel_rack (Ast.Binop (Ast.Sub, Ast.Var "R", Ast.Int 1))) ->
          check_bool "loss" true (dg.Ast.deg_loss = Some (Ast.Int 100))
      | _ -> Alcotest.fail "expected rack degrade target")
  | _ -> Alcotest.fail "expected rack degrade then heal"

let test_parse_service_actions () =
  let p =
    Parser.parse
      "Daemon D { node 1: timer -> halt service ckpt[N + 1], goto 2; time t = 5;\n\
      \ node 2: timer -> stop service sched, goto 3; time t = 1;\n\
      \ node 3: timer -> continue service disp, halt; time t = 1; }"
  in
  let d = List.hd p.Ast.daemons in
  let actions n = (List.hd (List.nth d.Ast.d_nodes n).Ast.n_transitions).Ast.actions in
  (match actions 0 with
  | [
   Ast.A_halt (Some (Ast.Svc_ckpt (Ast.Binop (Ast.Add, Ast.Var "N", Ast.Int 1)))); Ast.A_goto "2";
  ] ->
      ()
  | _ -> Alcotest.fail "expected ckpt halt with expression index");
  (match actions 1 with
  | [ Ast.A_stop (Some Ast.Svc_sched); Ast.A_goto "3" ] -> ()
  | _ -> Alcotest.fail "expected scheduler stop");
  (* a bare [halt] (the controller's own exit) must stay selector-free *)
  match actions 2 with
  | [ Ast.A_continue (Some Ast.Svc_disp); Ast.A_halt None ] -> ()
  | _ -> Alcotest.fail "expected dispatcher continue then bare halt"

let test_parse_degrade_bad_field () =
  match
    Compile.compile_source "Daemon D { node 1: timer -> degrade G1[0] speed = 2; time t = 1; }"
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected unknown-field error"

let test_parse_error_location () =
  match Compile.compile_source "Daemon D {\n node 1:\n onload -> ;\n}" with
  | Error msg -> check_bool "line 3 reported" true (String.length msg > 0 && String.sub msg 0 6 = "line 3")
  | Ok _ -> Alcotest.fail "expected error"

(* ------------------------------------------------------------------ *)
(* Pretty-printer round-trip *)

let roundtrip src =
  let p = Parser.parse src in
  let printed = Pp.program_to_string p in
  let p' =
    try Parser.parse printed
    with Loc.Error (loc, msg) ->
      Alcotest.failf "re-parse failed: %s\n--- printed ---\n%s" (Loc.error_to_string loc msg)
        printed
  in
  check_bool "round-trip equal" true (Ast.equal_program p p')

let test_roundtrip_paper_scenarios () =
  List.iter (fun (_, src) -> roundtrip src) Paper_scenarios.all

let test_roundtrip_edge_cases () =
  roundtrip "Daemon D { int x = 0 - 5; node 1: x < 3 * (x + 2) -> x = x % 2, goto 1; }";
  roundtrip "Daemon D { node a: ?m -> !m(P), stop, continue, halt; node b: } P : D on machine 0;"

(* Every net-action shape the printer can emit survives print -> parse:
   one- and two-sided partition, heal, and degrade with every subset of
   the three dimension fields. *)
let test_roundtrip_net_actions () =
  roundtrip "Daemon D { node 1: timer -> partition G1[2], goto 1; time t = 5; }";
  roundtrip "Daemon D { node 1: timer -> partition G1[0] G1[1], goto 1; time t = 5; }";
  roundtrip "Daemon D { node 1: timer -> partition FAIL_SENDER, heal; ?cut -> heal, goto 1; }";
  roundtrip "Daemon D { node 1: timer -> degrade G1[2] loss = 100, goto 1; time t = 5; }";
  roundtrip
    "Daemon D { node 1: timer -> degrade G1[2] loss = N * 10 latency = 2 jitter = 1, goto 1; \
     time t = 5; }";
  roundtrip "Daemon D { node 1: timer -> degrade P latency = 7; time t = 5; } P : D on machine 0;"

(* Infrastructure service selectors on halt/stop/continue: the ckpt
   index sits inside brackets so any expression prints bare; the bare
   forms (controller self-halt etc.) must stay selector-free. *)
let test_roundtrip_service_actions () =
  roundtrip "Daemon D { node 1: timer -> halt service ckpt[0], goto 1; time t = 5; }";
  roundtrip "Daemon D { node 1: timer -> halt service ckpt[N + 1], goto 1; time t = 5; }";
  roundtrip "Daemon D { node 1: timer -> stop service ckpt[2], goto 1; time t = 5; }";
  roundtrip "Daemon D { node 1: timer -> continue service ckpt[I], goto 1; time t = 5; }";
  roundtrip "Daemon D { node 1: timer -> halt service sched, goto 1; time t = 5; }";
  roundtrip "Daemon D { node 1: timer -> stop service disp, halt; time t = 5; }";
  roundtrip "Daemon D { node 1: ?kill -> halt, goto 1; }"

(* Topology group destinations: the switch index sits inside brackets so
   any expression prints bare, while pod/rack indices parse as a single
   factor — compound ones must come back parenthesized. *)
let test_roundtrip_topo_dests () =
  roundtrip "Daemon D { node 1: timer -> partition switch edge[2], goto 1; time t = 5; }";
  roundtrip "Daemon D { node 1: timer -> partition switch agg[N + 1], goto 1; time t = 5; }";
  roundtrip "Daemon D { node 1: timer -> partition switch core[N * 2 - 1], heal; time t = 5; }";
  roundtrip "Daemon D { node 1: timer -> partition pod 1, goto 1; time t = 5; }";
  roundtrip "Daemon D { node 1: timer -> partition pod (N + 1), goto 1; time t = 5; }";
  roundtrip "Daemon D { node 1: timer -> partition rack N, goto 1; time t = 5; }";
  roundtrip
    "Daemon D { node 1: timer -> degrade rack (R - 1) loss = 100 latency = 2, goto 1; \
     time t = 5; }";
  roundtrip "Daemon D { node 1: timer -> degrade pod 0 loss = 300, goto 1; time t = 5; }";
  (* the pretty-printer must parenthesize a compound pod index it is
     handed even when the parser could never have produced it bare *)
  let printed =
    Format.asprintf "%a"
      (fun ppf () ->
        Pp.pp_action ppf
          (Ast.A_partition
             (Ast.D_topo (Ast.Sel_pod (Ast.Binop (Ast.Add, Ast.Var "N", Ast.Int 1))), None)))
      ()
  in
  check_string "compound pod index parenthesized" "partition pod (N + 1)" printed

(* Codegen.Scenario: the source of every fault kind, the network ones
   included, survives parse -> print -> parse and compiles. *)
let test_scenario_injection_roundtrip () =
  let open Codegen.Scenario in
  let plans =
    [
      [ { machine = 2; anchor = After 20; kind = Partition } ];
      [
        { machine = 1; anchor = After 10; kind = Degrade { loss = 50; latency = 3 } };
        { machine = 1; anchor = After 15; kind = Kill };
        { machine = 0; anchor = After 8; kind = Heal };
      ];
      [
        { machine = 0; anchor = After 20; kind = Switch_kill { tier = Ast.Tier_edge } };
        { machine = 3; anchor = After 5; kind = Switch_kill { tier = Ast.Tier_agg } };
        { machine = 1; anchor = After 5; kind = Switch_kill { tier = Ast.Tier_core } };
        { machine = 2; anchor = After 10; kind = Pod_degrade { loss = 300; latency = 5 } };
        { machine = 0; anchor = After 15; kind = Heal };
      ];
      [
        { machine = 3; anchor = After 25; kind = Kill };
        { machine = 4; anchor = On_reload { nth = 10; delay = 1 }; kind = Freeze { thaw = 30 } };
        { machine = 3; anchor = After 2; kind = Partition };
        { machine = 0; anchor = After 12; kind = Heal };
      ];
      (* service faults: machine mirrors the ckpt replica index *)
      [
        { machine = 0; anchor = After 32; kind = Service_kill { service = S_ckpt 0 } };
        { machine = 2; anchor = After 1; kind = Service_freeze { service = S_ckpt 2; thaw = 20 } };
        { machine = 0; anchor = After 5; kind = Service_kill { service = S_sched } };
        { machine = 0; anchor = After 3; kind = Service_freeze { service = S_disp; thaw = 10 } };
        { machine = 1; anchor = After 6; kind = Kill };
      ];
    ]
  in
  List.iter
    (fun injections ->
      let src = source ~n_machines:13 injections in
      roundtrip src;
      match Compile.compile_source src with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "generated scenario does not compile: %s\n%s" e src)
    plans

(* Every scenario file we ship must survive parse -> print -> parse.
   (Round-tripping is parameter-independent: [Pp] prints the AST before
   [Sema] substitutes anything.) *)
let test_roundtrip_scenario_files () =
  let dir = "../scenarios" in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".fail")
    |> List.sort String.compare
  in
  check_bool "scenario files present" true (List.length files >= 8);
  List.iter
    (fun file ->
      let path = Filename.concat dir file in
      let ic = open_in_bin path in
      let src =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      try roundtrip src
      with exn -> Alcotest.failf "%s: %s" file (Printexc.to_string exn))
    files

(* Random expression generator for print/parse round-trip. *)
let gen_expr =
  let open QCheck.Gen in
  sized (fun n ->
      fix
        (fun self n ->
          if n <= 0 then
            oneof [ map (fun i -> Ast.Int i) (int_bound 1000); return (Ast.Var "x") ]
          else
            frequency
              [
                (1, map (fun i -> Ast.Int i) (int_bound 1000));
                (1, return (Ast.Var "x"));
                ( 3,
                  map3
                    (fun op a b -> Ast.Binop (op, a, b))
                    (oneofl Ast.[ Add; Sub; Mul; Div; Mod ])
                    (self (n / 2)) (self (n / 2)) );
                ( 1,
                  map2 (fun a b -> Ast.Random (a, b)) (self (n / 2)) (self (n / 2)) );
              ])
        (min n 8))

let prop_expr_roundtrip =
  QCheck.Test.make ~name:"expression print/parse round-trip" ~count:500
    (QCheck.make ~print:(fun e -> Format.asprintf "%a" Pp.pp_expr e) gen_expr)
    (fun e ->
      let printed = Format.asprintf "%a" Pp.pp_expr e in
      Ast.equal_expr e (Parser.parse_expr printed))

(* Random well-formed program generator: validity by construction, so the
   whole pipeline (print -> parse -> sema -> compile) must succeed and the
   re-parsed program must equal the original. *)
let gen_program =
  let open QCheck.Gen in
  let ident pool = map (List.nth pool) (int_bound (List.length pool - 1)) in
  let var_pool = [ "x"; "y"; "count" ] in
  let msg_pool = [ "crash"; "ok"; "no"; "ping" ] in
  let fn_pool = [ "setCommand"; "send_all" ] in
  let gen_expr vars =
    fix
      (fun self n ->
        if n = 0 || vars = [] then
          if vars = [] then map (fun i -> Ast.Int i) (int_bound 100)
          else
            oneof [ map (fun i -> Ast.Int i) (int_bound 100); map (fun v -> Ast.Var v) (ident vars) ]
        else
          frequency
            [
              (2, map (fun i -> Ast.Int i) (int_bound 100));
              (2, map (fun v -> Ast.Var v) (ident vars));
              ( 1,
                map3
                  (fun op a b -> Ast.Binop (op, a, b))
                  (oneofl Ast.[ Add; Sub; Mul ])
                  (self (n - 1)) (self (n - 1)) );
              (1, map2 (fun a b -> Ast.Random (a, b)) (return (Ast.Int 0)) (self (n - 1)));
            ])
      2
  in
  let gen_relop = oneofl Ast.[ Eq; Ne; Lt; Le; Gt; Ge ] in
  let gen_trigger ~has_timer =
    let base =
      [
        (3, map (fun m -> Ast.T_recv m) (ident msg_pool));
        (2, return Ast.T_onload);
        (1, return Ast.T_onexit);
        (1, return Ast.T_onerror);
        (1, map (fun f -> Ast.T_before f) (ident fn_pool));
        (1, map (fun f -> Ast.T_after f) (ident fn_pool));
      ]
    in
    frequency (if has_timer then (2, return Ast.T_timer) :: base else base)
  in
  let gen_dest ~vars ~is_recv =
    let base =
      [
        (2, return (Ast.D_instance "P1"));
        (2, map (fun e -> Ast.D_indexed ("G1", e)) (gen_expr vars));
        (1, return (Ast.D_group "G1"));
      ]
    in
    frequency (if is_recv then (1, return Ast.D_sender) :: base else base)
  in
  let gen_service vars =
    frequency
      [
        (3, return None);
        (1, map (fun e -> Some (Ast.Svc_ckpt e)) (gen_expr vars));
        (1, return (Some Ast.Svc_sched));
        (1, return (Some Ast.Svc_disp));
      ]
  in
  let gen_action ~node_ids ~vars ~is_recv =
    frequency
      ([
         (3, map (fun n -> Ast.A_goto n) (ident node_ids));
         ( 3,
           map2 (fun m d -> Ast.A_send (m, d)) (ident msg_pool) (gen_dest ~vars ~is_recv) );
         (1, map (fun s -> Ast.A_halt s) (gen_service vars));
         (1, map (fun s -> Ast.A_stop s) (gen_service vars));
         (1, map (fun s -> Ast.A_continue s) (gen_service vars));
       ]
      @
      if vars = [] then []
      else [ (2, map2 (fun v e -> Ast.A_assign (v, e)) (ident vars) (gen_expr vars)) ])
  in
  let gen_transition ~node_ids ~vars ~has_timer =
    gen_trigger ~has_timer >>= fun trigger ->
    let is_recv = match trigger with Ast.T_recv _ -> true | _ -> false in
    list_size (int_range 0 2)
      (map3 (fun op a b -> (op, a, b)) gen_relop (gen_expr vars) (gen_expr vars))
    >>= fun conds ->
    list_size (int_range 1 3) (gen_action ~node_ids ~vars ~is_recv) >>= fun actions ->
    return
      { Ast.t_loc = Loc.dummy; guard = { Ast.trigger = Some trigger; conds }; actions }
  in
  int_range 1 3 >>= fun n_nodes ->
  let node_ids = List.init n_nodes (fun i -> string_of_int (i + 1)) in
  int_range 0 2 >>= fun n_vars ->
  let vars = List.filteri (fun i _ -> i < n_vars) var_pool in
  (* daemon variable initialisers may only use previously declared vars *)
  let rec gen_var_decls seen = function
    | [] -> return []
    | v :: rest ->
        gen_expr seen >>= fun e ->
        gen_var_decls (v :: seen) rest >>= fun tail -> return ((v, e) :: tail)
  in
  gen_var_decls [] vars >>= fun d_vars ->
  let gen_node id =
    bool >>= fun has_timer ->
    (if has_timer then gen_expr vars >>= fun e -> return (Some ("t", e)) else return None)
    >>= fun n_timer ->
    list_size (int_range 0 3) (gen_transition ~node_ids ~vars ~has_timer) >>= fun ts ->
    return { Ast.n_loc = Loc.dummy; n_id = id; n_always = []; n_timer; n_transitions = ts }
  in
  flatten_l (List.map gen_node node_ids) >>= fun d_nodes ->
  int_range 2 6 >>= fun group_size ->
  return
    {
      Ast.daemons = [ { Ast.d_loc = Loc.dummy; d_name = "D"; d_vars; d_nodes } ];
      deployments =
        [
          Ast.Dep_singleton
            { dep_loc = Loc.dummy; inst = "P1"; daemon = "D"; machine = group_size };
          Ast.Dep_group
            {
              dep_loc = Loc.dummy;
              inst = "G1";
              count = group_size;
              daemon = "D";
              mach_lo = 0;
              mach_hi = group_size - 1;
            };
        ];
    }

let prop_program_pipeline =
  QCheck.Test.make ~name:"random programs: print/parse/sema/compile" ~count:300
    (QCheck.make ~print:Pp.program_to_string gen_program)
    (fun program ->
      let printed = Pp.program_to_string program in
      match Parser.parse printed with
      | exception Loc.Error (loc, msg) ->
          QCheck.Test.fail_reportf "re-parse failed: %s\n%s" (Loc.error_to_string loc msg) printed
      | reparsed ->
          (* Compare after semantic analysis: the parser leaves bare group
             destinations as instances until Sema classifies them. *)
          if
            not
              (Ast.equal_program (Sema.check program) (Sema.check reparsed))
          then
            QCheck.Test.fail_reportf "round-trip mismatch:\n%s\n--- reparsed ---\n%s" printed
              (Pp.program_to_string reparsed)
          else (
            match Compile.compile_source printed with
            | Ok plan ->
                if plan.Compile.automata = [] then
                  QCheck.Test.fail_reportf "empty plan:\n%s" printed
                else true
            | Error msg -> QCheck.Test.fail_reportf "compile failed: %s\n%s" msg printed))

let prop_lexer_total =
  QCheck.Test.make ~name:"lexer/parser never crash on garbage" ~count:500
    QCheck.(string_gen_of_size (Gen.int_range 0 60) Gen.printable)
    (fun src ->
      match Compile.compile_source src with Ok _ -> true | Error _ -> true)

(* ------------------------------------------------------------------ *)
(* Sema *)

let check_err ?params src expected_fragment =
  match Compile.compile_source ?params src with
  | Error msg ->
      let re = Str.regexp_string expected_fragment in
      check_bool
        (Printf.sprintf "error %S contains %S" msg expected_fragment)
        true
        (try
           ignore (Str.search_forward re msg 0);
           true
         with Not_found -> false)
  | Ok _ -> Alcotest.failf "expected error containing %S" expected_fragment

let test_sema_unbound_var () = check_err "Daemon D { node 1: x > 0 -> goto 1; }" "unbound variable x"

let test_sema_param_substitution () =
  let p =
    Sema.check ~params:[ ("X", 7) ] (Parser.parse "Daemon D { int n = X; node 1: }")
  in
  match (List.hd p.Ast.daemons).Ast.d_vars with
  | [ ("n", Ast.Int 7) ] -> ()
  | _ -> Alcotest.fail "parameter not substituted"

let test_sema_goto_unknown () =
  check_err "Daemon D { node 1: onload -> goto 9; }" "goto to unknown node 9"

let test_sema_duplicate_node () =
  check_err "Daemon D { node 1: node 1: }" "duplicate node 1"

let test_sema_timer_guard_without_timer () =
  check_err "Daemon D { node 1: timer -> goto 1; }" "declares no timer"

let test_sema_sender_outside_recv () =
  check_err "Daemon D { node 1: onload -> !m(FAIL_SENDER); }" "FAIL_SENDER"

let test_sema_shadowing () =
  check_err "Daemon D { int x = 1; node 1: always int x = 2; }" "shadows a daemon variable"

let test_sema_assign_undeclared () =
  check_err "Daemon D { node 1: onload -> y = 1; }" "undeclared variable y"

let test_sema_group_resolution () =
  let p =
    Sema.check
      (Parser.parse
         "Daemon D { node 1: onload -> !m(G1), !m(P1); } P1 : D on machine 9; G1[2] : D on \
          machines 0 .. 1;")
  in
  let d = List.hd p.Ast.daemons in
  let t = List.hd (List.hd d.Ast.d_nodes).Ast.n_transitions in
  match t.Ast.actions with
  | [ Ast.A_send (_, Ast.D_group "G1"); Ast.A_send (_, Ast.D_instance "P1") ] -> ()
  | _ -> Alcotest.fail "bare group name should broadcast, singleton stays instance"

let test_sema_unknown_dest () =
  check_err
    "Daemon D { node 1: onload -> !m(Q); } P1 : D on machine 0;"
    "not a deployed instance"

let test_sema_bad_group_arity () =
  check_err "Daemon D { node 1: } G1[5] : D on machines 0 .. 2;" "spans 3 machines"

let test_sema_unknown_daemon_in_deployment () =
  check_err "Daemon D { node 1: } P1 : Nope on machine 0;" "unknown daemon"

(* ------------------------------------------------------------------ *)
(* Compile *)

let compile src ?params () =
  match Compile.compile_source ?params src with
  | Ok plan -> plan
  | Error msg -> Alcotest.failf "compile failed: %s" msg

let test_compile_slots () =
  let plan =
    compile
      "Daemon D { int a = 1; int b = 2; node 1: always int c = a + b; time t = 5; timer -> \
       c = c + 1, goto 2; node 2: always int d = 0; }"
      ()
  in
  let a = Option.get (Compile.automaton plan "D") in
  check_int "4 slots" 4 (Automaton.var_count a);
  check_int "2 nodes" 2 (Array.length a.Automaton.nodes);
  check_bool "node lookup" true (Automaton.node_index a "2" = Some 1)

let test_compile_goto_indices () =
  let plan = compile "Daemon D { node a: onload -> goto b; node b: onexit -> goto a; }" () in
  let a = Option.get (Compile.automaton plan "D") in
  (match (List.hd a.Automaton.nodes.(0).Automaton.transitions).Automaton.actions with
  | [ Automaton.C_goto 1 ] -> ()
  | _ -> Alcotest.fail "goto b should be index 1");
  match (List.hd a.Automaton.nodes.(1).Automaton.transitions).Automaton.actions with
  | [ Automaton.C_goto 0 ] -> ()
  | _ -> Alcotest.fail "goto a should be index 0"

let test_compile_messages () =
  let plan =
    compile "Daemon D { node 1: ?ok -> !crash(P1), goto 1; ?no -> goto 1; } P1 : D on machine 0;"
      ()
  in
  let a = Option.get (Compile.automaton plan "D") in
  match a.Automaton.nodes.(0).Automaton.transitions with
  | [ ok; no ] ->
      check_bool "receives ok" true (ok.Automaton.trigger = Some (Ast.T_recv "ok"));
      check_bool "sends crash" true
        (match ok.Automaton.actions with Automaton.C_send ("crash", _) :: _ -> true | _ -> false);
      check_bool "receives no" true (no.Automaton.trigger = Some (Ast.T_recv "no"))
  | _ -> Alcotest.fail "expected two transitions"

let test_compile_paper_scenarios () =
  List.iter
    (fun (name, src) ->
      match Compile.compile_source src with
      | Ok plan -> check_bool (name ^ " has automata") true (plan.Compile.automata <> [])
      | Error msg -> Alcotest.failf "%s failed to compile: %s" name msg)
    Paper_scenarios.all

let test_compile_dot_output () =
  let plan = compile (Paper_scenarios.synchronized ~n_machines:8 ~period:50) () in
  let a = Option.get (Compile.automaton plan "ADVnodes") in
  let dot = Codegen.to_dot a in
  check_bool "digraph" true (String.length dot > 20 && String.sub dot 0 7 = "digraph")

let test_compile_dump () =
  let plan = compile (Paper_scenarios.frequency ~n_machines:8 ~period:50) () in
  let dump = Codegen.dump plan in
  check_bool "mentions ADV1" true
    (try
       ignore (Str.search_forward (Str.regexp_string "ADV1") dump 0);
       true
     with Not_found -> false)

(* ------------------------------------------------------------------ *)
(* Tool comparison (Table, §2.1) *)

let test_tool_comparison () =
  check_bool "FAIL-FCI satisfies all" true
    (List.for_all Tool_comparison.fail_fci.Tool_comparison.supports Tool_comparison.criteria);
  check_bool "LOKI lacks expressiveness" false
    (Tool_comparison.loki.Tool_comparison.supports Tool_comparison.High_expressiveness);
  check_bool "NFTAPE lacks scalability" false
    (Tool_comparison.nftape.Tool_comparison.supports Tool_comparison.Scalability);
  check_bool "NFTAPE needs code modification" false
    (Tool_comparison.nftape.Tool_comparison.supports Tool_comparison.No_code_modification);
  let table = Tool_comparison.render () in
  check_int "8 lines" 8
    (List.length (String.split_on_char '\n' (String.trim table)))

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [ prop_expr_roundtrip; prop_program_pipeline; prop_lexer_total ]
  in
  Alcotest.run "fail_lang"
    [
      ( "lexer",
        [
          Alcotest.test_case "symbols" `Quick test_lexer_symbols;
          Alcotest.test_case "keywords" `Quick test_lexer_keywords;
          Alcotest.test_case "idents and ints" `Quick test_lexer_idents_ints;
          Alcotest.test_case "comments" `Quick test_lexer_comments;
          Alcotest.test_case "locations" `Quick test_lexer_locations;
          Alcotest.test_case "illegal input" `Quick test_lexer_illegal;
        ] );
      ( "parser",
        [
          Alcotest.test_case "minimal daemon" `Quick test_parse_minimal;
          Alcotest.test_case "expr precedence" `Quick test_parse_expr_precedence;
          Alcotest.test_case "expr associativity" `Quick test_parse_expr_assoc;
          Alcotest.test_case "transition" `Quick test_parse_transition;
          Alcotest.test_case "timer and always" `Quick test_parse_timer_always;
          Alcotest.test_case "two timers rejected" `Quick test_parse_two_timers_rejected;
          Alcotest.test_case "two triggers rejected" `Quick test_parse_two_triggers_rejected;
          Alcotest.test_case "deployment" `Quick test_parse_deployment;
          Alcotest.test_case "FAIL_SENDER dest" `Quick test_parse_sender_dest;
          Alcotest.test_case "before trigger" `Quick test_parse_before;
          Alcotest.test_case "set and watch" `Quick test_parse_set_and_watch;
          Alcotest.test_case "net actions" `Quick test_parse_net_actions;
          Alcotest.test_case "topology destinations" `Quick test_parse_topo_dests;
          Alcotest.test_case "service actions" `Quick test_parse_service_actions;
          Alcotest.test_case "degrade bad field" `Quick test_parse_degrade_bad_field;
          Alcotest.test_case "error location" `Quick test_parse_error_location;
        ] );
      ( "pretty-printer",
        [
          Alcotest.test_case "paper scenarios round-trip" `Quick test_roundtrip_paper_scenarios;
          Alcotest.test_case "edge cases round-trip" `Quick test_roundtrip_edge_cases;
          Alcotest.test_case "net actions round-trip" `Quick test_roundtrip_net_actions;
          Alcotest.test_case "service actions round-trip" `Quick test_roundtrip_service_actions;
          Alcotest.test_case "topology destinations round-trip" `Quick test_roundtrip_topo_dests;
          Alcotest.test_case "scenario injections round-trip" `Quick
            test_scenario_injection_roundtrip;
          Alcotest.test_case "scenario files round-trip" `Quick test_roundtrip_scenario_files;
        ] );
      ( "sema",
        [
          Alcotest.test_case "unbound variable" `Quick test_sema_unbound_var;
          Alcotest.test_case "parameter substitution" `Quick test_sema_param_substitution;
          Alcotest.test_case "goto unknown" `Quick test_sema_goto_unknown;
          Alcotest.test_case "duplicate node" `Quick test_sema_duplicate_node;
          Alcotest.test_case "timer guard without timer" `Quick test_sema_timer_guard_without_timer;
          Alcotest.test_case "sender outside recv" `Quick test_sema_sender_outside_recv;
          Alcotest.test_case "shadowing" `Quick test_sema_shadowing;
          Alcotest.test_case "assign undeclared" `Quick test_sema_assign_undeclared;
          Alcotest.test_case "group resolution" `Quick test_sema_group_resolution;
          Alcotest.test_case "unknown destination" `Quick test_sema_unknown_dest;
          Alcotest.test_case "bad group arity" `Quick test_sema_bad_group_arity;
          Alcotest.test_case "unknown daemon in deployment" `Quick
            test_sema_unknown_daemon_in_deployment;
        ] );
      ( "compile",
        [
          Alcotest.test_case "slot assignment" `Quick test_compile_slots;
          Alcotest.test_case "goto indices" `Quick test_compile_goto_indices;
          Alcotest.test_case "message vocabulary" `Quick test_compile_messages;
          Alcotest.test_case "paper scenarios compile" `Quick test_compile_paper_scenarios;
          Alcotest.test_case "dot output" `Quick test_compile_dot_output;
          Alcotest.test_case "dump" `Quick test_compile_dump;
        ] );
      ("table", [ Alcotest.test_case "tool comparison" `Quick test_tool_comparison ]);
      ("properties", qsuite);
    ]
