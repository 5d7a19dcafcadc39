(* Tests for the FCI runtime: deployment, message routing, lifecycle
   triggers, timers, process control (halt/stop/continue), breakpoints and
   the variable read/write extension. *)

open Simkern
open Fail_lang

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let check_string = check Alcotest.string

let deploy ?msg_latency ?params eng src =
  match Compile.compile_source ?params src with
  | Ok plan -> Fci.Runtime.create eng ?msg_latency plan
  | Error msg -> Alcotest.failf "compile failed: %s" msg

(* Fast control plane for unit tests. *)
let fast = 0.01

let test_deploy_instances () =
  let eng = Engine.create () in
  let rt =
    deploy eng "Daemon D { node 1: } P1 : D on machine 9; G1[3] : D on machines 0 .. 2;"
  in
  ignore (Engine.run eng);
  check_int "4 instances" 4 (List.length (Fci.Runtime.instances rt));
  (match Fci.Runtime.find_instance rt "G1[2]" with
  | Some inst ->
      check_int "machine" 2 (Fci.Runtime.instance_machine inst);
      check_string "node" "1" (Fci.Runtime.instance_node inst)
  | None -> Alcotest.fail "missing G1[2]");
  check_bool "P1 exists" true (Fci.Runtime.find_instance rt "P1" <> None)

let test_deploy_conflict () =
  let eng = Engine.create () in
  try
    ignore (deploy eng "Daemon D { node 1: } P1 : D on machine 0; P2 : D on machine 0;");
    Alcotest.fail "expected conflict"
  with Invalid_argument _ -> ()

let test_timer_and_messages () =
  (* A sends ping to B after 2 s; B replies pong; A counts replies. *)
  let eng = Engine.create () in
  let rt =
    deploy ~msg_latency:fast eng
      {|
Daemon A {
  int pongs = 0;
  node 1:
    time t = 2;
    timer -> !ping(B1), goto 2;
  node 2:
    ?pong -> pongs = pongs + 1, goto 1;
}
Daemon B {
  node 1:
    ?ping -> !pong(FAIL_SENDER), goto 1;
}
A1 : A on machine 0;
B1 : B on machine 1;
|}
  in
  ignore (Engine.run ~until:7.0 eng);
  (* Cycles at ~2.02s, ~4.04s, ~6.06s. *)
  check_bool "three pongs" true (Fci.Runtime.read_var rt ~instance:"A1" "pongs" = Some 3)

let test_timer_cancelled_on_transition () =
  (* The node-1 timer must not fire after leaving node 1 via a message. *)
  let eng = Engine.create () in
  let rt =
    deploy ~msg_latency:fast eng
      {|
Daemon A {
  int fired = 0;
  node 1:
    time t = 5;
    timer -> fired = fired + 1, goto 1;
    ?leave -> goto 2;
  node 2:
}
Daemon B {
  node 1:
    time t = 1;
    timer -> !leave(A1), goto 2;
  node 2:
}
A1 : A on machine 0;
B1 : B on machine 1;
|}
  in
  ignore (Engine.run ~until:20.0 eng);
  check_bool "timer did not fire" true (Fci.Runtime.read_var rt ~instance:"A1" "fired" = Some 0)

(* A controllable dummy application process: runs [steps] sleep(1) steps,
   then exits normally. *)
let spawn_app eng ?(steps = 1000) ?(name = "app") ?on_step () =
  Proc.spawn eng ~name (fun () ->
      let continue = ref true in
      let i = ref 0 in
      while !continue && !i < steps do
        Proc.sleep 1.0;
        incr i;
        match on_step with Some f -> f !i | None -> ()
      done)

let fig4_src = "Daemon ADV2 {\n" ^
  "  node 1:\n" ^
  "    onload -> continue, goto 2;\n" ^
  "    ?crash -> !no(P1), goto 1;\n" ^
  "  node 2:\n" ^
  "    onexit -> goto 1;\n" ^
  "    onerror -> goto 1;\n" ^
  "    onload -> continue, goto 2;\n" ^
  "    ?crash -> !ok(P1), halt, goto 1;\n" ^
  "}\n"

let test_onload_transitions () =
  let eng = Engine.create () in
  let rt =
    deploy ~msg_latency:fast eng
      (fig4_src ^ "Daemon P { node 1: } P1 : P on machine 9; G1[2] : ADV2 on machines 0 .. 1;")
  in
  let app = spawn_app eng () in
  Engine.schedule eng ~delay:1.0 (fun () -> Fci.Runtime.register rt ~machine:0 (Fci.Control.of_proc app))
  |> ignore;
  ignore (Engine.run ~until:5.0 eng);
  match Fci.Runtime.find_instance rt "G1[0]" with
  | Some inst ->
      check_string "moved to node 2" "2" (Fci.Runtime.instance_node inst);
      check_bool "controlled" true (Fci.Runtime.controlled inst <> None)
  | None -> Alcotest.fail "missing instance"

let test_crash_order_kills_and_acks () =
  (* Coordinator kills the registered app via G1[0]; expects ok ack. *)
  let eng = Engine.create () in
  let rt =
    deploy ~msg_latency:fast eng
      ({|
Daemon COORD {
  int acked = 0;
  node 1:
    time t = 3;
    timer -> !crash(G1[0]), goto 2;
  node 2:
    ?ok -> acked = 1, goto 3;
    ?no -> acked = 2, goto 3;
  node 3:
}
|}
      ^ fig4_src ^ "P1 : COORD on machine 9; G1[2] : ADV2 on machines 0 .. 1;")
  in
  let app = spawn_app eng () in
  let reason = ref None in
  Proc.on_exit app (fun r -> reason := Some r);
  Engine.schedule eng (fun () -> Fci.Runtime.register rt ~machine:0 (Fci.Control.of_proc app))
  |> ignore;
  ignore (Engine.run ~until:10.0 eng);
  check_bool "app killed" true (!reason = Some Proc.Exit_killed);
  check_bool "positive ack" true (Fci.Runtime.read_var rt ~instance:"P1" "acked" = Some 1);
  check_int "one injection" 1 (Fci.Runtime.injected_faults rt)

let test_crash_order_no_app_negative_ack () =
  let eng = Engine.create () in
  let rt =
    deploy ~msg_latency:fast eng
      ({|
Daemon COORD {
  int acked = 0;
  node 1:
    time t = 1;
    timer -> !crash(G1[0]), goto 2;
  node 2:
    ?ok -> acked = 1, goto 3;
    ?no -> acked = 2, goto 3;
  node 3:
}
|}
      ^ fig4_src ^ "P1 : COORD on machine 9; G1[2] : ADV2 on machines 0 .. 1;")
  in
  ignore (Engine.run ~until:10.0 eng);
  check_bool "negative ack" true (Fci.Runtime.read_var rt ~instance:"P1" "acked" = Some 2);
  check_int "no injection" 0 (Fci.Runtime.injected_faults rt)

let test_onexit_vs_onerror () =
  let eng = Engine.create () in
  let rt =
    deploy ~msg_latency:fast eng
      {|
Daemon W {
  int exits = 0;
  int errors = 0;
  node 1:
    onload -> goto 2;
  node 2:
    onexit -> exits = exits + 1, goto 1;
    onerror -> errors = errors + 1, goto 1;
}
G1[1] : W on machines 0 .. 0;
|}
  in
  (* First app exits normally, second crashes, third is killed. *)
  let app1 = spawn_app eng ~steps:2 () in
  Engine.schedule eng (fun () -> Fci.Runtime.attach rt ~machine:0 app1) |> ignore;
  let app2 = Proc.spawn eng ~name:"crasher" (fun () -> Proc.sleep 5.0; failwith "boom") in
  Engine.schedule eng ~delay:4.0 (fun () -> Fci.Runtime.attach rt ~machine:0 app2) |> ignore;
  let app3 = spawn_app eng ~name:"victim" () in
  Engine.schedule eng ~delay:7.0 (fun () -> Fci.Runtime.attach rt ~machine:0 app3) |> ignore;
  Engine.schedule eng ~delay:8.0 (fun () -> Proc.kill app3) |> ignore;
  ignore (Engine.run ~until:20.0 eng);
  check_bool "one normal exit" true (Fci.Runtime.read_var rt ~instance:"G1[0]" "exits" = Some 1);
  check_bool "two abnormal" true (Fci.Runtime.read_var rt ~instance:"G1[0]" "errors" = Some 2)

let test_stop_continue () =
  (* Scenario stops the app at load, a timer resumes it 5 s later. *)
  let eng = Engine.create () in
  let rt =
    deploy ~msg_latency:fast eng
      {|
Daemon S {
  node 1:
    onload -> stop, goto 2;
  node 2:
    time t = 5;
    timer -> continue, goto 3;
  node 3:
}
G1[1] : S on machines 0 .. 0;
|}
  in
  let first_step_at = ref 0.0 in
  let app =
    spawn_app eng ~steps:3
      ~on_step:(fun i -> if i = 1 then first_step_at := Engine.now eng)
      ()
  in
  Engine.schedule eng (fun () -> Fci.Runtime.attach rt ~machine:0 app) |> ignore;
  ignore (Engine.run ~until:30.0 eng);
  (* Without the stop the first step lands at t=1; frozen until ~5. *)
  check_bool "first step delayed past 5s"
    true (!first_step_at >= 5.0 && !first_step_at < 7.0)

let test_breakpoint_halt () =
  (* Fig. 10(b) node 4 pattern: halt just before a named function. *)
  let eng = Engine.create () in
  let rt =
    deploy ~msg_latency:fast eng
      {|
Daemon B {
  node 1:
    onload -> continue, goto 2;
  node 2:
    before(setCommand) -> halt, goto 3;
  node 3:
}
G1[1] : B on machines 0 .. 0;
|}
  in
  let reached = ref false in
  let rt_ref = rt in
  let app =
    Proc.spawn eng ~name:"app" (fun () ->
        Fci.Runtime.register rt_ref ~machine:0 (Fci.Control.of_proc (Proc.self ()));
        Proc.sleep 1.0;
        Fci.Runtime.breakpoint rt_ref ~machine:0 `Before "setCommand";
        reached := true)
  in
  let reason = ref None in
  Proc.on_exit app (fun r -> reason := Some r);
  ignore (Engine.run ~until:10.0 eng);
  check_bool "killed at breakpoint" true (!reason = Some Proc.Exit_killed);
  check_bool "function body never ran" false !reached

let test_breakpoint_default_continue () =
  (* No matching before() transition: the call is transparent. *)
  let eng = Engine.create () in
  let rt = deploy ~msg_latency:fast eng "Daemon B { node 1: onload -> goto 1; } G1[1] : B on machines 0 .. 0;" in
  let reached = ref false in
  ignore
    (Proc.spawn eng ~name:"app" (fun () ->
         Fci.Runtime.register rt ~machine:0 (Fci.Control.of_proc (Proc.self ()));
         Fci.Runtime.breakpoint rt ~machine:0 `Before "anything";
         reached := true));
  ignore (Engine.run ~until:5.0 eng);
  check_bool "continued" true !reached

let test_register_unmonitored_machine () =
  (* Machine without an instance: no fault injection, app unaffected. *)
  let eng = Engine.create () in
  let rt = deploy ~msg_latency:fast eng "Daemon B { node 1: } G1[1] : B on machines 0 .. 0;" in
  let done_ = ref false in
  ignore
    (Proc.spawn eng ~name:"app" (fun () ->
         Fci.Runtime.register rt ~machine:5 (Fci.Control.of_proc (Proc.self ()));
         Fci.Runtime.breakpoint rt ~machine:5 `Before "f";
         Proc.sleep 1.0;
         done_ := true));
  ignore (Engine.run ~until:5.0 eng);
  check_bool "ran to completion" true !done_

let test_group_broadcast () =
  let eng = Engine.create () in
  let rt =
    deploy ~msg_latency:fast eng
      {|
Daemon C {
  node 1:
    time t = 1;
    timer -> !hello(G1), goto 2;
  node 2:
}
Daemon W {
  int got = 0;
  node 1:
    ?hello -> got = 1, goto 1;
}
P1 : C on machine 9;
G1[3] : W on machines 0 .. 2;
|}
  in
  ignore (Engine.run ~until:5.0 eng);
  List.iter
    (fun i ->
      check_bool
        (Printf.sprintf "G1[%d] got broadcast" i)
        true
        (Fci.Runtime.read_var rt ~instance:(Printf.sprintf "G1[%d]" i) "got" = Some 1))
    [ 0; 1; 2 ]

let test_fail_random_bounds () =
  let eng = Engine.create () in
  let rt =
    deploy ~msg_latency:fast eng
      {|
Daemon R {
  int bad = 0;
  int draws = 0;
  node 1:
    always int ran = FAIL_RANDOM(0, 52);
    time t = 1;
    timer && ran >= 0 && ran <= 52 && draws < 50 -> draws = draws + 1, goto 1;
    timer && draws < 50 -> bad = bad + 1, draws = draws + 1, goto 1;
    timer -> goto 2;
  node 2:
}
G1[1] : R on machines 0 .. 0;
|}
  in
  ignore (Engine.run ~until:100.0 eng);
  check_bool "50 draws" true (Fci.Runtime.read_var rt ~instance:"G1[0]" "draws" = Some 50);
  check_bool "all in bounds" true (Fci.Runtime.read_var rt ~instance:"G1[0]" "bad" = Some 0)

let test_app_var_watch_and_set () =
  (* Planned feature: react to an application variable crossing a
     threshold and write one back. *)
  let eng = Engine.create () in
  let rt =
    deploy ~msg_latency:fast eng
      {|
Daemon V {
  int seen = 0;
  node 1:
    onload -> goto 2;
  node 2:
    watch(progress) && @progress >= 3 -> seen = @progress, set boost = 7, goto 3;
  node 3:
}
G1[1] : V on machines 0 .. 0;
|}
  in
  let vars = Fci.Control.make_vars () in
  let boost_seen = ref 0 in
  ignore
    (Proc.spawn eng ~name:"app" (fun () ->
         let target =
           Fci.Control.with_vars (Fci.Control.of_proc (Proc.self ())) vars
         in
         Fci.Runtime.register rt ~machine:0 target;
         for i = 1 to 5 do
           Proc.sleep 1.0;
           Fci.Control.set_var vars "progress" i
         done;
         Proc.sleep 1.0;
         boost_seen := Option.value ~default:0 (Fci.Control.get_var vars "boost")));
  ignore (Engine.run ~until:20.0 eng);
  check_bool "threshold captured" true (Fci.Runtime.read_var rt ~instance:"G1[0]" "seen" = Some 3);
  check_int "injector wrote app var" 7 !boost_seen

let test_epsilon_transitions () =
  let eng = Engine.create () in
  let rt =
    deploy ~msg_latency:fast eng
      {|
Daemon E {
  int x = 0;
  node 1:
    x < 3 -> x = x + 1, goto 1;
    x >= 3 -> goto 2;
  node 2:
}
G1[1] : E on machines 0 .. 0;
|}
  in
  ignore (Engine.run ~until:1.0 eng);
  check_bool "counted to 3" true (Fci.Runtime.read_var rt ~instance:"G1[0]" "x" = Some 3);
  match Fci.Runtime.find_instance rt "G1[0]" with
  | Some inst -> check_string "in node 2" "2" (Fci.Runtime.instance_node inst)
  | None -> Alcotest.fail "missing instance"

let test_epsilon_loop_detected () =
  let eng = Engine.create () in
  try
    ignore (deploy ~msg_latency:fast eng "Daemon E { node 1: 1 == 1 -> goto 1; } G1[1] : E on machines 0 .. 0;");
    ignore (Engine.run ~until:1.0 eng);
    Alcotest.fail "expected epsilon-loop error"
  with Invalid_argument msg ->
    check_bool "mentions loop" true
      (try
         ignore (Str.search_forward (Str.regexp_string "epsilon") msg 0);
         true
       with Not_found -> false)

let test_stale_lifecycle_hook_ignored () =
  (* A process from a previous wave exiting after a new registration must
     not clear the new controlled target. *)
  let eng = Engine.create () in
  let rt =
    deploy ~msg_latency:fast eng
      {|
Daemon W {
  int errors = 0;
  node 1:
    onload -> goto 1;
    onerror -> errors = errors + 1, goto 1;
}
G1[1] : W on machines 0 .. 0;
|}
  in
  let old_app = spawn_app eng ~name:"old" () in
  Engine.schedule eng (fun () -> Fci.Runtime.attach rt ~machine:0 old_app) |> ignore;
  let new_app = spawn_app eng ~name:"new" () in
  Engine.schedule eng ~delay:2.0 (fun () -> Fci.Runtime.attach rt ~machine:0 new_app) |> ignore;
  Engine.schedule eng ~delay:3.0 (fun () -> Proc.kill old_app) |> ignore;
  ignore (Engine.run ~until:10.0 eng);
  (match Fci.Runtime.find_instance rt "G1[0]" with
  | Some inst -> (
      match Fci.Runtime.controlled inst with
      | Some ctl -> check_string "still controls new" "new" ctl.Fci.Control.target_name
      | None -> Alcotest.fail "controlled target lost")
  | None -> Alcotest.fail "missing instance");
  check_bool "stale onerror ignored" true
    (Fci.Runtime.read_var rt ~instance:"G1[0]" "errors" = Some 0)

let test_out_of_range_send_dropped () =
  (* G1[9] does not exist: the send is traced and dropped, the run
     continues. *)
  let eng = Engine.create () in
  let rt =
    deploy ~msg_latency:fast eng
      {|
Daemon C {
  int after_ok = 0;
  node 1:
    time t = 1;
    timer -> !hello(G1[9]), goto 2;
  node 2:
    time t = 1;
    timer -> after_ok = 1, goto 3;
  node 3:
}
P1 : C on machine 5;
G1[2] : C on machines 0 .. 1;
|}
  in
  ignore (Engine.run ~until:10.0 eng);
  check_bool "continued past bad send" true (Fci.Runtime.read_var rt ~instance:"P1" "after_ok" = Some 1);
  check_bool "send-error traced" true
    (Simkern.Trace.count (Engine.trace eng) ~event:"send-error" >= 1)

let test_halt_without_target_is_noop () =
  let eng = Engine.create () in
  let rt =
    deploy ~msg_latency:fast eng
      "Daemon H { int done_ = 0; node 1: time t = 1; timer -> halt, done_ = 1, goto 2; node 2: }        G1[1] : H on machines 0 .. 0;"
  in
  ignore (Engine.run ~until:5.0 eng);
  check_bool "actions after halt still ran" true
    (Fci.Runtime.read_var rt ~instance:"G1[0]" "done_" = Some 1);
  check_int "nothing injected" 0 (Fci.Runtime.injected_faults rt);
  check_bool "halt-no-target traced" true
    (Simkern.Trace.count (Engine.trace eng) ~event:"halt-no-target" = 1)

let test_register_overwrite () =
  (* A second registration replaces the controlled target (with a trace
     note); crash orders then hit the newest process. *)
  let eng = Engine.create () in
  let rt =
    deploy ~msg_latency:fast eng
      {|
Daemon W {
  node 1:
    onload -> goto 1;
    ?crash -> halt, goto 2;
  node 2:
}
Daemon C {
  node 1:
    time t = 5;
    timer -> !crash(G1[0]), goto 2;
  node 2:
}
P1 : C on machine 5;
G1[1] : W on machines 0 .. 0;
|}
  in
  let first = spawn_app eng ~name:"first" () in
  let second = spawn_app eng ~name:"second" () in
  Engine.schedule eng (fun () -> Fci.Runtime.attach rt ~machine:0 first) |> ignore;
  Engine.schedule eng ~delay:1.0 (fun () -> Fci.Runtime.attach rt ~machine:0 second) |> ignore;
  let first_dead = ref false and second_dead = ref false in
  Proc.on_exit first (fun r -> if r = Proc.Exit_killed then first_dead := true);
  Proc.on_exit second (fun r -> if r = Proc.Exit_killed then second_dead := true);
  ignore (Engine.run ~until:10.0 eng);
  check_bool "overwrite traced" true
    (Simkern.Trace.count (Engine.trace eng) ~event:"register-overwrite" = 1);
  check_bool "newest killed" true !second_dead;
  check_bool "oldest untouched" false !first_dead

let () =
  Alcotest.run "fci"
    [
      ( "deployment",
        [
          Alcotest.test_case "instances" `Quick test_deploy_instances;
          Alcotest.test_case "conflict" `Quick test_deploy_conflict;
        ] );
      ( "automaton",
        [
          Alcotest.test_case "timer and messages" `Quick test_timer_and_messages;
          Alcotest.test_case "timer cancelled" `Quick test_timer_cancelled_on_transition;
          Alcotest.test_case "FAIL_RANDOM bounds" `Quick test_fail_random_bounds;
          Alcotest.test_case "epsilon transitions" `Quick test_epsilon_transitions;
          Alcotest.test_case "epsilon loop detected" `Quick test_epsilon_loop_detected;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "onload" `Quick test_onload_transitions;
          Alcotest.test_case "crash order ok" `Quick test_crash_order_kills_and_acks;
          Alcotest.test_case "crash order no" `Quick test_crash_order_no_app_negative_ack;
          Alcotest.test_case "onexit vs onerror" `Quick test_onexit_vs_onerror;
          Alcotest.test_case "stale hook ignored" `Quick test_stale_lifecycle_hook_ignored;
          Alcotest.test_case "unmonitored machine" `Quick test_register_unmonitored_machine;
        ] );
      ( "control",
        [
          Alcotest.test_case "stop/continue" `Quick test_stop_continue;
          Alcotest.test_case "breakpoint halt" `Quick test_breakpoint_halt;
          Alcotest.test_case "breakpoint default continue" `Quick test_breakpoint_default_continue;
        ] );
      ( "messaging",
        [ Alcotest.test_case "group broadcast" `Quick test_group_broadcast ] );
      ( "extension",
        [ Alcotest.test_case "watch and set app vars" `Quick test_app_var_watch_and_set ] );
      ( "robustness",
        [
          Alcotest.test_case "out-of-range send dropped" `Quick test_out_of_range_send_dropped;
          Alcotest.test_case "halt without target" `Quick test_halt_without_target_is_noop;
          Alcotest.test_case "register overwrite" `Quick test_register_overwrite;
        ] );
    ]
