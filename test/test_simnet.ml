(* Tests for the simulated network: connection lifecycle, latency and
   bandwidth modelling, closure-on-death semantics, and the cluster/task
   registry of simos. *)

open Simkern
open Simnet

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let check_float msg = check (Alcotest.float 1e-6) msg

let with_net f =
  let eng = Engine.create () in
  let net = Net.create eng () in
  f eng net;
  ignore (Engine.run ~until:1000.0 eng)

let test_connect_and_exchange () =
  let got = ref None in
  with_net (fun eng net ->
      ignore
        (Proc.spawn eng ~name:"server" (fun () ->
             let listener = Net.listen net ~host:1 ~port:80 in
             match Net.accept listener with
             | Some conn -> (
                 match Net.recv conn with
                 | Net.Data v ->
                     got := Some v;
                     ignore (Net.send conn (v * 2))
                 | Net.Closed -> ())
             | None -> ()));
      ignore
        (Proc.spawn eng ~name:"client" (fun () ->
             Proc.sleep 0.01;
             match Net.connect net ~host:0 ~to_host:1 ~to_port:80 with
             | Ok conn ->
                 ignore (Net.send conn 21);
                 (match Net.recv conn with
                 | Net.Data 42 -> ()
                 | _ -> Alcotest.fail "expected doubled reply")
             | Error `Refused -> Alcotest.fail "refused")));
  check_bool "server got value" true (!got = Some 21)

let test_connect_refused () =
  let refused = ref false in
  with_net (fun eng net ->
      ignore
        (Proc.spawn eng (fun () ->
             match Net.connect net ~host:0 ~to_host:1 ~to_port:9 with
             | Error `Refused -> refused := true
             | Ok _ -> ())));
  check_bool "refused" true !refused

let test_latency () =
  (* Remote handshake costs one RTT; messages one latency. *)
  let connected_at = ref 0.0 and received_at = ref 0.0 in
  with_net (fun eng net ->
      ignore
        (Proc.spawn eng ~name:"server" (fun () ->
             let listener = Net.listen net ~host:1 ~port:80 in
             match Net.accept listener with
             | Some conn -> ignore (Net.send conn ())
             | None -> ()));
      ignore
        (Proc.spawn eng ~name:"client" (fun () ->
             Proc.sleep 1.0;
             match Net.connect net ~host:0 ~to_host:1 ~to_port:80 with
             | Ok conn ->
                 connected_at := Engine.now eng;
                 (match Net.recv conn with
                 | Net.Data () -> received_at := Engine.now eng
                 | Net.Closed -> ())
             | Error `Refused -> ())));
  let lat = Net.latency in
  check_float "handshake one RTT" (1.0 +. (2.0 *. lat)) !connected_at;
  check_bool "message after accept" true (!received_at > !connected_at)

let test_bandwidth_serialization () =
  (* Two 1 MB messages at 100 MB/s: second arrives ~10 ms after first. *)
  let times = ref [] in
  with_net (fun eng net ->
      ignore
        (Proc.spawn eng ~name:"server" (fun () ->
             let listener = Net.listen net ~host:1 ~port:80 in
             match Net.accept listener with
             | Some conn ->
                 for _ = 1 to 2 do
                   match Net.recv conn with
                   | Net.Data () -> times := Engine.now eng :: !times
                   | Net.Closed -> ()
                 done
             | None -> ()));
      ignore
        (Proc.spawn eng ~name:"client" (fun () ->
             match Net.connect net ~host:0 ~to_host:1 ~to_port:80 with
             | Ok conn ->
                 ignore (Net.send conn ~size:1_000_000 ());
                 ignore (Net.send conn ~size:1_000_000 ())
             | Error `Refused -> ())));
  match List.rev !times with
  | [ t1; t2 ] ->
      check_bool "10ms serialization gap" true (t2 -. t1 > 0.009 && t2 -. t1 < 0.011)
  | _ -> Alcotest.fail "expected two messages"

let test_close_observed () =
  let observed = ref false in
  with_net (fun eng net ->
      ignore
        (Proc.spawn eng ~name:"server" (fun () ->
             let listener = Net.listen net ~host:1 ~port:80 in
             match Net.accept listener with
             | Some conn -> (
                 match Net.recv conn with
                 | Net.Closed -> observed := true
                 | Net.Data _ -> ())
             | None -> ()));
      ignore
        (Proc.spawn eng ~name:"client" (fun () ->
             match Net.connect net ~host:0 ~to_host:1 ~to_port:80 with
             | Ok conn ->
                 Proc.sleep 1.0;
                 Net.close conn
             | Error `Refused -> ())));
  check_bool "peer saw close" true !observed

let test_owner_death_closes () =
  (* The paper's failure detection: killing the task closes its sockets. *)
  let observed_at = ref 0.0 in
  with_net (fun eng net ->
      ignore
        (Proc.spawn eng ~name:"server" (fun () ->
             let listener = Net.listen net ~host:1 ~port:80 in
             match Net.accept listener with
             | Some conn -> (
                 match Net.recv conn with
                 | Net.Closed -> observed_at := Engine.now eng
                 | Net.Data _ -> ())
             | None -> ()));
      let client =
        Proc.spawn eng ~name:"client" (fun () ->
            match Net.connect net ~host:0 ~to_host:1 ~to_port:80 with
            | Ok _conn -> Proc.sleep 1000.0
            | Error `Refused -> ())
      in
      ignore
        (Proc.spawn eng ~name:"killer" (fun () ->
             Proc.sleep 5.0;
             Proc.kill client)));
  check_bool "closure detected promptly" true (!observed_at > 5.0 && !observed_at < 5.1)

let test_send_after_close_fails () =
  let result = ref None in
  with_net (fun eng net ->
      ignore
        (Proc.spawn eng ~name:"server" (fun () ->
             let listener = Net.listen net ~host:1 ~port:80 in
             ignore (Net.accept listener)));
      ignore
        (Proc.spawn eng ~name:"client" (fun () ->
             match Net.connect net ~host:0 ~to_host:1 ~to_port:80 with
             | Ok conn ->
                 Net.close conn;
                 result := Some (Net.send conn ())
             | Error `Refused -> ())));
  check_bool "send refused" true (!result = Some false)

let test_recv_timeout () =
  let got = ref (Some (Net.Data ())) in
  with_net (fun eng net ->
      ignore
        (Proc.spawn eng ~name:"server" (fun () ->
             let listener = Net.listen net ~host:1 ~port:80 in
             match Net.accept listener with
             | Some conn -> got := Net.recv_timeout conn ~timeout:2.0
             | None -> ()));
      ignore
        (Proc.spawn eng ~name:"client" (fun () ->
             match Net.connect net ~host:0 ~to_host:1 ~to_port:80 with
             | Ok _ -> Proc.sleep 500.0
             | Error `Refused -> ())));
  check_bool "timed out" true (!got = None)

(* A send on a pristine live link allocates its arrival closure and its
   wire value: the bound fails if the send path grows. *)
let test_send_allocation () =
  let sends = 10_000 and words = ref 0.0 in
  with_net (fun eng net ->
      ignore
        (Proc.spawn eng ~name:"server" (fun () ->
             let listener = Net.listen net ~host:1 ~port:80 in
             ignore (Net.accept listener);
             Proc.sleep 500.0));
      ignore
        (Proc.spawn eng ~name:"client" (fun () ->
             match Net.connect net ~host:0 ~to_host:1 ~to_port:80 with
             | Ok conn ->
                 let batch () =
                   let before = Gc.minor_words () in
                   for i = 1 to sends do
                     ignore (Net.send conn i)
                   done;
                   let spent = Gc.minor_words () -. before in
                   Proc.sleep 1.0;
                   spent
                 in
                 ignore (batch ());
                 words := batch () /. float_of_int sends
             | Error `Refused -> Alcotest.fail "refused")));
  check_bool (Printf.sprintf "at most 12 minor words per send (%.2f)" !words) true
    (!words <= 12.0)

let test_double_bind_rejected () =
  with_net (fun _eng net ->
      ignore (Net.listen net ~host:3 ~port:80);
      try
        ignore (Net.listen net ~host:3 ~port:80);
        Alcotest.fail "expected bind failure"
      with Invalid_argument _ -> ())

let test_listener_close_frees_port () =
  with_net (fun _eng net ->
      let l = Net.listen net ~host:3 ~port:80 in
      Net.close_listener l;
      ignore (Net.listen net ~host:3 ~port:80))

(* ------------------------------------------------------------------ *)
(* Forwarded endpoints *)

(* A live link between hosts 0 and 1, set up by two holder processes
   that stay alive (their deaths would close the ends). Returns the
   client and server ends, idle, at t = 1. *)
let linked eng net =
  let client = ref None and server = ref None in
  ignore
    (Proc.spawn eng ~name:"server" (fun () ->
         let l = Net.listen net ~host:1 ~port:80 in
         server := Net.accept l;
         Proc.sleep 1e6));
  ignore
    (Proc.spawn eng ~name:"client" (fun () ->
         match Net.connect net ~host:0 ~to_host:1 ~to_port:80 with
         | Ok c ->
             client := Some c;
             Proc.sleep 1e6
         | Error `Refused -> Alcotest.fail "refused"));
  ignore (Engine.run ~until:1.0 eng);
  (Option.get !client, Option.get !server)

(* What a forwarder hands over, newest first. *)
let recorder () =
  let log = ref [] in
  (log, fun m -> log := m :: !log)

let check_handed msg expected log =
  check (Alcotest.list (Alcotest.option Alcotest.int)) msg expected (List.rev !log)

let settle eng = ignore (Engine.run ~until:(Engine.now eng +. 1.0) eng)

(* Three same-instant arrivals at an idle forwarder post one flush,
   which hands over all three in order. *)
let test_forward_order_one_flush () =
  let eng = Engine.create () in
  let net = Net.create eng () in
  let a, b = linked eng net in
  let log, f = recorder () in
  Net.forward b f;
  settle eng;
  let idle = Engine.pending eng in
  List.iter (fun v -> ignore (Net.send a ~size:0 v)) [ 1; 2; 3 ];
  check_int "three arrivals queued" (idle + 3) (Engine.pending eng);
  for _ = 1 to 3 do
    ignore (Engine.run_one eng)
  done;
  check_handed "nothing before the flush" [] log;
  check_int "one flush for three arrivals" (idle + 1) (Engine.pending eng);
  ignore (Engine.run_one eng);
  check_handed "the flush hands over all three" [ Some 1; Some 2; Some 3 ] log;
  check_int "idle again" idle (Engine.pending eng);
  ignore (Net.send a 4);
  settle eng;
  check_handed "the next wake-up" [ Some 1; Some 2; Some 3; Some 4 ] log

let test_forward_buffered_first () =
  let eng = Engine.create () in
  let net = Net.create eng () in
  let a, b = linked eng net in
  ignore (Net.send a 1);
  ignore (Net.send a 2);
  settle eng;
  let log, f = recorder () in
  Net.forward b f;
  ignore (Net.send a 3);
  settle eng;
  check_handed "buffered items first" [ Some 1; Some 2; Some 3 ] log

let test_forward_closed_once () =
  let eng = Engine.create () in
  let net = Net.create eng () in
  let a, b = linked eng net in
  let log, f = recorder () in
  Net.forward b f;
  ignore (Net.send a 1);
  settle eng;
  Net.close a;
  settle eng;
  check_handed "data, then None" [ Some 1; None ] log;
  Net.close b;
  check_bool "send after close refused" false (Net.send a 2);
  settle eng;
  check_handed "None only once" [ Some 1; None ] log;
  (* A closure already buffered before [forward] also ends it once. *)
  let eng = Engine.create () in
  let net = Net.create eng () in
  let a, b = linked eng net in
  ignore (Net.send a 7);
  Net.close a;
  settle eng;
  let log, f = recorder () in
  Net.forward b f;
  settle eng;
  check_handed "buffered data and closure" [ Some 7; None ] log

(* A local close while the forwarder is idle ends it at the next flush;
   a message that arrives in between is never handed over. *)
let test_forward_local_close_idle () =
  let eng = Engine.create () in
  let net = Net.create eng () in
  let a, b = linked eng net in
  let log, f = recorder () in
  Net.forward b f;
  settle eng;
  let arrival = Engine.now eng +. Net.latency in
  Engine.post_at eng ~time:arrival (fun () -> Net.close b);
  ignore (Net.send a ~size:0 1);
  settle eng;
  check_handed "only the closure" [ None ] log

let test_forward_frozen_owner () =
  let eng = Engine.create () in
  let net = Net.create eng () in
  let a, b = linked eng net in
  let owner = Proc.spawn eng ~name:"owner" (fun () -> Proc.sleep 1e6) in
  let log = ref [] in
  Net.forward ~owner b (fun m -> log := (m, Engine.now eng) :: !log);
  settle eng;
  Proc.freeze owner;
  ignore (Net.send a 1);
  ignore (Net.send a 2);
  settle eng;
  check_int "held while frozen" 0 (List.length !log);
  let thawed_at = Engine.now eng in
  Proc.unfreeze owner;
  settle eng;
  check (Alcotest.list (Alcotest.option Alcotest.int)) "handed over after the thaw"
    [ Some 1; Some 2 ] (List.rev_map fst !log);
  check_bool "at the thaw" true (List.for_all (fun (_, t) -> t = thawed_at) !log)

let test_forward_dead_owner () =
  let eng = Engine.create () in
  let net = Net.create eng () in
  let a, b = linked eng net in
  let owner = Proc.spawn eng ~name:"owner" (fun () -> Proc.sleep 1e6) in
  let log, f = recorder () in
  Net.forward ~owner b f;
  ignore (Net.send a 1);
  settle eng;
  Proc.kill owner;
  settle eng;
  let idle = Engine.pending eng in
  ignore (Net.send a 2);
  ignore (Engine.run_one eng);
  check_int "an arrival posts no flush" idle (Engine.pending eng);
  check_bool "the link itself stays open" true (Net.is_open b);
  Net.close a;
  settle eng;
  check_handed "nothing after the owner died" [ Some 1 ] log

(* An endpoint has one forwarder: a second [forward] is refused, and the
   first keeps handing over. *)
let test_forward_twice () =
  let eng = Engine.create () in
  let net = Net.create eng () in
  let a, b = linked eng net in
  let log, f = recorder () in
  Net.forward b f;
  Alcotest.check_raises "second forward"
    (Invalid_argument "Net.forward: connection already forwarded") (fun () ->
      Net.forward b ignore);
  ignore (Net.send a 1);
  settle eng;
  check_handed "the first forwarder" [ Some 1 ] log

(* Live words per endpoint of [n] forwarded pairs, each end adopted by
   one of two processes, once every forwarder is idle. The array cell and
   [Some] box that keep an end reachable here are not counted: what is
   left is the endpoint record, its clock and the exit hook of [adopt]. *)
let endpoint_words () =
  let n = 500 in
  let eng = Engine.create () in
  let net = Net.create eng () in
  let ends = Array.make (2 * n) None in
  let keep i = function
    | Some c ->
        Net.forward c ignore;
        ends.(i) <- Some c
    | None -> Alcotest.fail "no connection"
  in
  ignore
    (Proc.spawn eng ~name:"server" (fun () ->
         let l = Net.listen net ~host:1 ~port:80 in
         for i = 0 to n - 1 do
           keep ((2 * i) + 1) (Net.accept l)
         done;
         Proc.sleep 1e6));
  ignore
    (Proc.spawn eng ~name:"client" (fun () ->
         Proc.sleep 1.0;
         for i = 0 to n - 1 do
           keep (2 * i) (Result.to_option (Net.connect net ~host:0 ~to_host:1 ~to_port:80))
         done;
         Proc.sleep 1e6));
  ignore (Engine.run ~until:0.5 eng);
  Gc.full_major ();
  let before = (Gc.stat ()).Gc.live_words in
  ignore (Engine.run ~until:100.0 eng);
  Gc.full_major ();
  let after = (Gc.stat ()).Gc.live_words in
  check_bool "every end kept" true (Array.for_all Option.is_some ends);
  (float_of_int (after - before) /. float_of_int (2 * n)) -. 2.0

let test_endpoint_footprint () =
  let words = endpoint_words () in
  check_bool (Printf.sprintf "at most 24 live words per endpoint (%.2f)" words) true
    (words <= 24.0)

(* Minor words per message of a loop of send, forwarded delivery and a
   1 ms sleep. *)
let test_forward_allocation () =
  let eng = Engine.create () in
  let net = Net.create eng () in
  let a, b = linked eng net in
  Net.forward b ignore;
  let messages = 10_000 and words = ref 0.0 in
  ignore
    (Proc.spawn eng ~name:"sender" (fun () ->
         let batch () =
           let before = Gc.minor_words () in
           for i = 1 to messages do
             ignore (Net.send a i);
             Proc.sleep 0.001
           done;
           Gc.minor_words () -. before
         in
         ignore (batch ());
         words := batch () /. float_of_int messages));
  ignore (Engine.run ~until:100.0 eng);
  check_bool (Printf.sprintf "at most 37 minor words per forwarded message (%.2f)" !words) true
    (!words <= 37.0)

(* ------------------------------------------------------------------ *)
(* Cluster (simos) *)

let test_cluster_tasks () =
  let eng = Engine.create () in
  let cluster = Simos.Cluster.create eng ~size:4 in
  let p = Simos.Cluster.spawn_on cluster ~host:2 ~name:"worker" (fun () -> Proc.sleep 10.0) in
  ignore (Engine.run ~until:5.0 eng);
  check_int "one task" 1 (List.length (Simos.Cluster.tasks cluster ~host:2));
  check_bool "find by name" true
    (match Simos.Cluster.find_task cluster ~host:2 ~name:"worker" with
    | Some q -> Proc.pid q = Proc.pid p
    | None -> false);
  check_int "live count" 1 (Simos.Cluster.live_task_count cluster);
  ignore (Engine.run ~until:20.0 eng);
  check_int "task gone after exit" 0 (List.length (Simos.Cluster.tasks cluster ~host:2))

let test_cluster_kill_all () =
  let eng = Engine.create () in
  let cluster = Simos.Cluster.create eng ~size:2 in
  for _ = 1 to 3 do
    ignore (Simos.Cluster.spawn_on cluster ~host:0 (fun () -> Proc.sleep 100.0))
  done;
  ignore (Simos.Cluster.spawn_on cluster ~host:1 (fun () -> Proc.sleep 100.0));
  Engine.schedule eng ~delay:1.0 (fun () -> Simos.Cluster.kill_all cluster ~host:0) |> ignore;
  ignore (Engine.run ~until:10.0 eng);
  check_int "host 0 empty" 0 (List.length (Simos.Cluster.tasks cluster ~host:0));
  check_int "host 1 untouched" 1 (List.length (Simos.Cluster.tasks cluster ~host:1))

let test_cluster_bad_host () =
  let eng = Engine.create () in
  let cluster = Simos.Cluster.create eng ~size:2 in
  Alcotest.check_raises "unknown host" (Invalid_argument "Cluster.host: unknown host 9")
    (fun () -> ignore (Simos.Cluster.host cluster 9))

let test_cluster_counters_o1 () =
  (* task_count / live_task_count are maintained counters, and they stay
     consistent through spawn, exit and kill_all. *)
  let eng = Engine.create () in
  let cluster = Simos.Cluster.create eng ~size:3 in
  for i = 1 to 4 do
    ignore
      (Simos.Cluster.spawn_on cluster ~host:0
         ~name:(Printf.sprintf "short-%d" i)
         (fun () -> Proc.sleep 1.0))
  done;
  for i = 1 to 3 do
    ignore
      (Simos.Cluster.spawn_on cluster ~host:2
         ~name:(Printf.sprintf "long-%d" i)
         (fun () -> Proc.sleep 100.0))
  done;
  ignore (Engine.run ~until:0.5 eng);
  check_int "host 0 count" 4 (Simos.Cluster.task_count cluster ~host:0);
  check_int "host 2 count" 3 (Simos.Cluster.task_count cluster ~host:2);
  check_int "live total" 7 (Simos.Cluster.live_task_count cluster);
  ignore (Engine.run ~until:5.0 eng);
  check_int "short tasks exited" 0 (Simos.Cluster.task_count cluster ~host:0);
  check_int "live total after exits" 3 (Simos.Cluster.live_task_count cluster);
  Simos.Cluster.kill_all cluster ~host:2;
  ignore (Engine.run ~until:10.0 eng);
  check_int "host 2 emptied" 0 (Simos.Cluster.task_count cluster ~host:2);
  check_int "all gone" 0 (Simos.Cluster.live_task_count cluster)

let test_cluster_slot_reuse () =
  (* Slots freed by exits are recycled: churn far beyond the initial
     capacity keeps the registry consistent (the free-list path). *)
  let eng = Engine.create () in
  let cluster = Simos.Cluster.create eng ~size:2 in
  for round = 0 to 9 do
    Engine.schedule eng ~delay:(float_of_int round) (fun () ->
        for i = 1 to 40 do
          ignore
            (Simos.Cluster.spawn_on cluster ~host:(i mod 2)
               ~name:(Printf.sprintf "r%d-%d" round i)
               (fun () -> Proc.sleep 0.5))
        done)
    |> ignore
  done;
  ignore (Engine.run ~until:100.0 eng);
  check_int "all recycled" 0 (Simos.Cluster.live_task_count cluster);
  check_int "host 0 empty" 0 (Simos.Cluster.task_count cluster ~host:0);
  check_int "host 1 empty" 0 (Simos.Cluster.task_count cluster ~host:1)

let test_cluster_tasks_order () =
  (* [tasks] lists most-recently-spawned first — the order protocol code
     and the pre-refactor golden traces rely on. *)
  let eng = Engine.create () in
  let cluster = Simos.Cluster.create eng ~size:1 in
  List.iter
    (fun name ->
      ignore (Simos.Cluster.spawn_on cluster ~host:0 ~name (fun () -> Proc.sleep 50.0)))
    [ "first"; "second"; "third" ];
  ignore (Engine.run ~until:1.0 eng);
  check (Alcotest.list Alcotest.string) "newest first" [ "third"; "second"; "first" ]
    (List.map Proc.name (Simos.Cluster.tasks cluster ~host:0))

(* ------------------------------------------------------------------ *)
(* Perturbation bookkeeping (O(active-rules) representation) *)

let test_perturb_overlapping_partition () =
  (* A host listed on BOTH sides of a partition cuts against both sides
     — the two-bit membership encoding must preserve this. *)
  let eng = Engine.create () in
  let net : unit Net.t = Net.create eng () in
  let p = Net.perturb net in
  Net.Perturb.partition p [ 0; 1 ] [ 1; 2 ];
  check_bool "0 vs 2 cut" true (Net.Perturb.cut p ~src:0 ~dst:2);
  check_bool "1 vs 2 cut" true (Net.Perturb.cut p ~src:1 ~dst:2);
  check_bool "1 vs 0 cut" true (Net.Perturb.cut p ~src:1 ~dst:0);
  check_bool "same host never cut" false (Net.Perturb.cut p ~src:1 ~dst:1);
  (* Hosts outside every set are unaffected. *)
  check_bool "3 vs 4 clean" false (Net.Perturb.cut p ~src:3 ~dst:4);
  check_bool "0 vs 3 clean" false (Net.Perturb.cut p ~src:0 ~dst:3)

let test_perturb_isolate_and_heal () =
  let eng = Engine.create () in
  let net : unit Net.t = Net.create eng () in
  let p = Net.perturb net in
  Net.Perturb.isolate p [ 2; 5 ];
  check_bool "inside vs outside cut" true (Net.Perturb.cut p ~src:2 ~dst:0);
  check_bool "inside vs inside clean" false (Net.Perturb.cut p ~src:2 ~dst:5);
  check_bool "outside vs outside clean" false (Net.Perturb.cut p ~src:0 ~dst:1);
  Net.Perturb.degrade p ~hosts:[ 7 ]
    { Net.Perturb.loss = 0.5; latency = 1.0; jitter = 0.0 };
  Net.Perturb.heal p;
  check_bool "cut healed" false (Net.Perturb.cut p ~src:2 ~dst:0);
  let s = Net.Perturb.spec_for p ~src:7 ~dst:0 in
  check_bool "degradation healed" true (s = Net.Perturb.zero);
  check_bool "transport stays armed" true (Net.Perturb.touched p)

let test_perturb_degrade_semantics () =
  let eng = Engine.create () in
  let net : unit Net.t = Net.create eng () in
  let p = Net.perturb net in
  let spec l = { Net.Perturb.loss = l; latency = 0.0; jitter = 0.0 } in
  Net.Perturb.degrade p ~hosts:[ 3; 9 ] (spec 0.2);
  (* Latest call naming a host replaces its entry outright. *)
  Net.Perturb.degrade p ~hosts:[ 3 ] (spec 0.05);
  check_bool "replace semantics" true
    ((Net.Perturb.spec_for p ~src:3 ~dst:100).Net.Perturb.loss = 0.05);
  (* src and dst entries combine by per-field max. *)
  check_bool "max combine" true
    ((Net.Perturb.spec_for p ~src:3 ~dst:9).Net.Perturb.loss = 0.2);
  check_bool "untouched pair" true
    (Net.Perturb.spec_for p ~src:50 ~dst:60 = Net.Perturb.zero)

let () =
  Alcotest.run "simnet"
    [
      ( "net",
        [
          Alcotest.test_case "connect and exchange" `Quick test_connect_and_exchange;
          Alcotest.test_case "connect refused" `Quick test_connect_refused;
          Alcotest.test_case "latency" `Quick test_latency;
          Alcotest.test_case "bandwidth serialization" `Quick test_bandwidth_serialization;
          Alcotest.test_case "close observed" `Quick test_close_observed;
          Alcotest.test_case "owner death closes" `Quick test_owner_death_closes;
          Alcotest.test_case "send after close" `Quick test_send_after_close_fails;
          Alcotest.test_case "recv timeout" `Quick test_recv_timeout;
          Alcotest.test_case "send allocation" `Quick test_send_allocation;
          Alcotest.test_case "double bind rejected" `Quick test_double_bind_rejected;
          Alcotest.test_case "listener close frees port" `Quick test_listener_close_frees_port;
        ] );
      ( "forward",
        [
          Alcotest.test_case "arrival order, one flush per wake-up" `Quick
            test_forward_order_one_flush;
          Alcotest.test_case "buffered items first" `Quick test_forward_buffered_first;
          Alcotest.test_case "closed once" `Quick test_forward_closed_once;
          Alcotest.test_case "local close while idle" `Quick test_forward_local_close_idle;
          Alcotest.test_case "frozen owner" `Quick test_forward_frozen_owner;
          Alcotest.test_case "dead owner" `Quick test_forward_dead_owner;
          Alcotest.test_case "second forward refused" `Quick test_forward_twice;
          Alcotest.test_case "endpoint footprint" `Quick test_endpoint_footprint;
          Alcotest.test_case "forwarded message allocation" `Quick test_forward_allocation;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "task registry" `Quick test_cluster_tasks;
          Alcotest.test_case "kill all" `Quick test_cluster_kill_all;
          Alcotest.test_case "bad host" `Quick test_cluster_bad_host;
          Alcotest.test_case "o(1) counters" `Quick test_cluster_counters_o1;
          Alcotest.test_case "slot reuse" `Quick test_cluster_slot_reuse;
          Alcotest.test_case "tasks newest first" `Quick test_cluster_tasks_order;
        ] );
      ( "perturb-bookkeeping",
        [
          Alcotest.test_case "overlapping partition" `Quick
            test_perturb_overlapping_partition;
          Alcotest.test_case "isolate and heal" `Quick test_perturb_isolate_and_heal;
          Alcotest.test_case "degrade semantics" `Quick test_perturb_degrade_semantics;
        ] );
    ]
