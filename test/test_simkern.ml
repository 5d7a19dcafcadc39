(* Unit and property tests for the discrete-event simulation kernel. *)

open Simkern

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let check_float msg = check (Alcotest.float 1e-9) msg

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    check_int "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_bounds () =
  let rng = Rng.create 7L in
  for _ = 1 to 1000 do
    let v = Rng.int rng 10 in
    check_bool "in range" true (v >= 0 && v < 10)
  done

let test_rng_int_in_range () =
  let rng = Rng.create 9L in
  for _ = 1 to 1000 do
    let v = Rng.int_in_range rng ~lo:5 ~hi:8 in
    check_bool "in range" true (v >= 5 && v <= 8)
  done

let test_rng_split_independent () =
  let a = Rng.create 42L in
  let b = Rng.split a in
  let xs = List.init 50 (fun _ -> Rng.int a 1_000_000) in
  let ys = List.init 50 (fun _ -> Rng.int b 1_000_000) in
  check_bool "streams differ" false (xs = ys)

let test_rng_invalid () =
  let rng = Rng.create 1L in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0));
  Alcotest.check_raises "empty choose" (Invalid_argument "Rng.choose: empty list") (fun () ->
      ignore (Rng.choose rng []))

let test_rng_float_bounds () =
  let rng = Rng.create 3L in
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.5 in
    check_bool "in [0, 2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_rng_shuffle_permutation () =
  let rng = Rng.create 11L in
  let a = Array.init 100 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check_bool "still a permutation" true (sorted = Array.init 100 Fun.id)

(* ------------------------------------------------------------------ *)
(* Heap *)

let test_heap_ordering () =
  let h = Heap.create ~compare:Int.compare in
  List.iter (Heap.push h) [ 5; 3; 8; 1; 9; 2; 7 ];
  let rec drain acc = match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc) in
  check (Alcotest.list Alcotest.int) "sorted" [ 1; 2; 3; 5; 7; 8; 9 ] (drain [])

let test_heap_empty () =
  let h = Heap.create ~compare:Int.compare in
  check_bool "empty" true (Heap.is_empty h);
  check_bool "peek none" true (Heap.peek h = None);
  check_bool "pop none" true (Heap.pop h = None)

let test_heap_duplicates () =
  let h = Heap.create ~compare:Int.compare in
  List.iter (Heap.push h) [ 4; 4; 4; 1; 1 ];
  check_int "length" 5 (Heap.length h);
  check_bool "min" true (Heap.pop h = Some 1)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains sorted" ~count:200
    QCheck.(list int)
    (fun xs ->
      let h = Heap.create ~compare:Int.compare in
      List.iter (Heap.push h) xs;
      let rec drain acc =
        match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
      in
      drain [] = List.sort Int.compare xs)

type heap_op = Push of int | Pop | Filter of int | Clear

let pp_heap_op = function
  | Push x -> Printf.sprintf "push %d" x
  | Pop -> "pop"
  | Filter k -> Printf.sprintf "filter(mod %d)" k
  | Clear -> "clear"

(* Interleaved operations against a sorted-list model: every pop, peek
   and length must agree, not only a final drain. *)
let prop_heap_model =
  let op =
    QCheck.Gen.(
      frequency
        [
          (6, map (fun x -> Push x) (int_range (-20) 20));
          (4, return Pop);
          (1, map (fun k -> Filter k) (int_range 2 4));
          (1, return Clear);
        ])
  in
  QCheck.Test.make ~name:"heap agrees with a sorted-list model" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_heap_op ops))
       QCheck.Gen.(list_size (int_bound 150) op))
    (fun ops ->
      let h = Heap.create ~compare:Int.compare in
      let model = ref [] in
      List.for_all
        (fun op ->
          let agree =
            match op with
            | Push x ->
                Heap.push h x;
                model := List.merge Int.compare [ x ] !model;
                true
            | Pop -> (
                match !model with
                | [] -> Heap.pop h = None
                | x :: rest ->
                    model := rest;
                    Heap.pop h = Some x)
            | Filter k ->
                Heap.filter_in_place h ~keep:(fun x -> x mod k <> 0);
                model := List.filter (fun x -> x mod k <> 0) !model;
                true
            | Clear ->
                Heap.clear h;
                model := [];
                true
          in
          agree
          && Heap.length h = List.length !model
          && Heap.peek h = (match !model with [] -> None | x :: _ -> Some x))
        ops)

(* Fills a heap with ten boxed elements, watched through [w]; kept out of
   line so that no local of the caller's frame holds one. *)
let[@inline never] fill_watched h w =
  for i = 0 to Weak.length w - 1 do
    let x = ref ((i * 7) mod Weak.length w) in
    Weak.set w i (Some x);
    Heap.push h x
  done

let test_heap_pop_releases () =
  let h = Heap.create ~compare:(fun (a : int ref) b -> Int.compare !a !b) in
  let w = Weak.create 10 in
  fill_watched h w;
  while Option.is_some (Heap.pop h) do
    ()
  done;
  Gc.full_major ();
  let reachable = ref 0 in
  for i = 0 to Weak.length w - 1 do
    if Weak.check w i then incr reachable
  done;
  check_int "popped elements still reachable" 0 !reachable;
  (* [h] must outlive the collection for its stale slots to count. *)
  check_bool "drained" true (Heap.is_empty h)

(* ------------------------------------------------------------------ *)
(* Engine *)

let test_engine_time_order () =
  let eng = Engine.create () in
  let log = ref [] in
  Engine.schedule eng ~delay:2.0 (fun () -> log := "b" :: !log) |> ignore;
  Engine.schedule eng ~delay:1.0 (fun () -> log := "a" :: !log) |> ignore;
  Engine.schedule eng ~delay:3.0 (fun () -> log := "c" :: !log) |> ignore;
  check_bool "quiescent" true (Engine.run eng = `Quiescent);
  check (Alcotest.list Alcotest.string) "order" [ "a"; "b"; "c" ] (List.rev !log);
  check_float "clock at last event" 3.0 (Engine.now eng)

let test_engine_same_instant_fifo () =
  let eng = Engine.create () in
  let log = ref [] in
  for i = 1 to 10 do
    Engine.schedule eng (fun () -> log := i :: !log) |> ignore
  done;
  ignore (Engine.run eng);
  check (Alcotest.list Alcotest.int) "fifo" (List.init 10 (fun i -> i + 1)) (List.rev !log)

let test_engine_deadline () =
  let eng = Engine.create () in
  let fired = ref false in
  Engine.schedule eng ~delay:10.0 (fun () -> fired := true) |> ignore;
  check_bool "deadline" true (Engine.run ~until:5.0 eng = `Deadline);
  check_bool "not fired" false !fired;
  check_float "clock at deadline" 5.0 (Engine.now eng)

let test_engine_cancel () =
  let eng = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule eng ~delay:1.0 (fun () -> fired := true) in
  Engine.cancel h;
  ignore (Engine.run eng);
  check_bool "cancelled" false !fired

let test_engine_cancel_queue_head () =
  (* Cancelling the head of the event queue must not starve or reorder
     what follows it. The queue used to be split into per-region shards;
     it is now one heap, and this is the case that survives. *)
  let eng = Engine.create () in
  let log = ref [] in
  let a = Engine.schedule eng ~delay:1.0 (fun () -> log := "a" :: !log) in
  Engine.schedule eng ~delay:2.0 (fun () -> log := "b" :: !log) |> ignore;
  Engine.schedule eng ~delay:3.0 (fun () -> log := "c" :: !log) |> ignore;
  Engine.cancel a;
  ignore (Engine.run eng);
  check (Alcotest.list Alcotest.string) "survivors in order" [ "b"; "c" ] (List.rev !log);
  check_float "ran to last event" 3.0 (Engine.now eng)

let test_engine_halt () =
  let eng = Engine.create () in
  Engine.schedule eng ~delay:1.0 (fun () -> Engine.halt eng) |> ignore;
  Engine.schedule eng ~delay:2.0 (fun () -> Alcotest.fail "should not run") |> ignore;
  check_bool "halted" true (Engine.run eng = `Halted)

let test_engine_nested_schedule () =
  let eng = Engine.create () in
  let log = ref [] in
  Engine.schedule eng ~delay:1.0 (fun () ->
      log := `Outer :: !log;
      Engine.schedule eng ~delay:1.0 (fun () -> log := `Inner :: !log) |> ignore)
  |> ignore;
  ignore (Engine.run eng);
  check_int "two events" 2 (List.length !log);
  check_float "final time" 2.0 (Engine.now eng)

let test_engine_past_schedule_rejected () =
  let eng = Engine.create () in
  Engine.schedule eng ~delay:5.0 (fun () ->
      try
        ignore (Engine.schedule_at eng ~time:1.0 (fun () -> ()));
        Alcotest.fail "expected Invalid_argument"
      with Invalid_argument _ -> ())
  |> ignore;
  ignore (Engine.run eng)

let test_engine_trace () =
  let eng = Engine.create () in
  Engine.schedule eng ~delay:1.5 (fun () -> Engine.record eng ~source:"t" ~event:"tick" "x")
  |> ignore;
  ignore (Engine.run eng);
  match Trace.last (Engine.trace eng) ~event:"tick" with
  | Some e ->
      check_float "time recorded" 1.5 e.Trace.time;
      check Alcotest.string "detail" "x" e.Trace.detail
  | None -> Alcotest.fail "no trace entry"

(* The explorer's pause/fork primitives: run up to (not through) a
   chosen event, step over it, re-aim it in time without losing its
   tie-breaking slot, and rewind the engine to a captured state. *)

let test_engine_stop_before () =
  let eng = Engine.create () in
  let log = ref [] in
  Engine.schedule eng ~delay:1.0 (fun () -> log := 1 :: !log) |> ignore;
  let bp = Engine.schedule eng ~delay:2.0 (fun () -> log := 2 :: !log) in
  Engine.schedule eng ~delay:3.0 (fun () -> log := 3 :: !log) |> ignore;
  check_bool "paused at the breakpoint" true (Engine.run ~stop_before:bp eng = `Breakpoint);
  check (Alcotest.list Alcotest.int) "only the prefix ran" [ 1 ] (List.rev !log);
  check_bool "breakpoint still queued" true (Engine.pending eng = 2);
  (* Step over it, then drain. *)
  check_bool "stepped" true (Engine.run_one eng);
  check_float "clock on the stepped event" 2.0 (Engine.now eng);
  check_bool "rest drains" true (Engine.run eng = `Quiescent);
  check (Alcotest.list Alcotest.int) "all ran once" [ 1; 2; 3 ] (List.rev !log)

let test_engine_run_one () =
  let eng = Engine.create () in
  let log = ref [] in
  Engine.schedule eng ~delay:1.0 (fun () -> log := `A :: !log) |> ignore;
  Engine.schedule eng ~delay:2.0 (fun () -> log := `B :: !log) |> ignore;
  check_bool "first" true (Engine.run_one eng);
  check_float "clock advanced" 1.0 (Engine.now eng);
  check_int "one event" 1 (List.length !log);
  check_bool "second" true (Engine.run_one eng);
  check_bool "empty queue" false (Engine.run_one eng)

let test_engine_retime_keeps_slot () =
  let eng = Engine.create () in
  let log = ref [] in
  (* c is scheduled first (lowest sequence) but aimed at t = 3; moving
     it to t = 10 must keep its sequence, so it still beats the two
     events natively scheduled there. *)
  let c = Engine.schedule eng ~delay:3.0 (fun () -> log := "c" :: !log) in
  Engine.schedule eng ~delay:10.0 (fun () -> log := "a" :: !log) |> ignore;
  Engine.schedule eng ~delay:10.0 (fun () -> log := "b" :: !log) |> ignore;
  let c' = Engine.retime c ~time:10.0 in
  check_bool "new handle" true (c' != c);
  check_int "no live event added" 3 (Engine.pending eng);
  ignore (Engine.run eng);
  check (Alcotest.list Alcotest.string) "sequence slot kept" [ "c"; "a"; "b" ] (List.rev !log);
  Alcotest.check_raises "stale handle refused"
    (Invalid_argument "Engine.retime: event is no longer pending") (fun () ->
      ignore (Engine.retime c' ~time:20.0));
  (* The explorer's pattern: re-aim a timer earlier, pause before it,
     then re-aim it later, past other pending events. Both retimes leave
     a tombstone under the timer's sequence number; the run must still
     equal one that scheduled the final time from scratch, with the
     clock never going backwards. *)
  let trial ~retimed =
    let eng = Engine.create () in
    let log = ref [] in
    let note name () = log := Printf.sprintf "%s@%g" name (Engine.now eng) :: !log in
    let timer = Engine.schedule eng ~delay:(if retimed then 35.0 else 50.0) (note "timer") in
    List.iter
      (fun (name, delay) -> Engine.schedule eng ~delay (note name) |> ignore)
      [ ("e1", 10.0); ("e2", 35.285); ("e3", 50.0); ("e4", 60.0) ];
    if retimed then begin
      let early = Engine.retime timer ~time:20.0 in
      check_bool "paused before the timer" true
        (Engine.run ~stop_before:early eng = `Breakpoint);
      check_float "clock at the pause" 10.0 (Engine.now eng);
      ignore (Engine.retime early ~time:50.0)
    end;
    ignore (Engine.run eng);
    List.rev !log
  in
  let scratch = trial ~retimed:false in
  check (Alcotest.list Alcotest.string) "from-scratch order"
    [ "e1@10"; "e2@35.285"; "timer@50"; "e3@50"; "e4@60" ]
    scratch;
  check (Alcotest.list Alcotest.string) "retimed twice = from scratch" scratch
    (trial ~retimed:true)

let test_engine_snapshot_restore () =
  let eng = Engine.create ~seed:5L () in
  let log = ref [] in
  Engine.schedule eng ~delay:1.0 (fun () -> log := 1 :: !log) |> ignore;
  Engine.schedule eng ~delay:2.0 (fun () ->
      log := 2 :: !log;
      Engine.schedule eng ~delay:2.0 (fun () -> log := 4 :: !log) |> ignore)
  |> ignore;
  Engine.schedule eng ~delay:3.0 (fun () -> log := 3 :: !log) |> ignore;
  ignore (Engine.run ~until:1.5 eng);
  let snap = Engine.snapshot eng in
  check_int "captured the queue" 2 (Engine.snapshot_events snap);
  check_bool "sized" true (Engine.snapshot_words snap > 0);
  let draw () = Simkern.Rng.int (Engine.rng eng) 1_000_000 in
  let first_draw = draw () in
  ignore (Engine.run eng);
  let first_pass = List.rev !log in
  check (Alcotest.list Alcotest.int) "first pass" [ 1; 2; 3; 4 ] first_pass;
  (* Rewind and replay: clock, queue and RNG are all back. *)
  Engine.restore eng snap;
  check_float "clock rewound" 1.5 (Engine.now eng);
  check_int "queue rebuilt" 2 (Engine.pending eng);
  check_int "rng rewound" first_draw (draw ());
  log := [];
  ignore (Engine.run eng);
  check (Alcotest.list Alcotest.int) "replayed suffix" [ 2; 3; 4 ] (List.rev !log);
  (* Not consumed: a second restore replays again. *)
  Engine.restore eng snap;
  ignore (draw ());
  log := [];
  ignore (Engine.run eng);
  check (Alcotest.list Alcotest.int) "replayed twice" [ 2; 3; 4 ] (List.rev !log)

(* ------------------------------------------------------------------ *)
(* Proc *)

let run_sim f =
  let eng = Engine.create () in
  f eng;
  ignore (Engine.run eng);
  eng

let test_proc_runs () =
  let hit = ref false in
  ignore (run_sim (fun eng -> ignore (Proc.spawn eng (fun () -> hit := true))));
  check_bool "body ran" true !hit

let test_proc_sleep_advances_time () =
  let t = ref 0.0 in
  let eng =
    run_sim (fun eng ->
        ignore
          (Proc.spawn eng (fun () ->
               Proc.sleep 3.0;
               t := Engine.now eng)))
  in
  check_float "woke at 3" 3.0 !t;
  check_float "engine at 3" 3.0 (Engine.now eng)

let test_proc_exit_normal () =
  let reason = ref None in
  ignore
    (run_sim (fun eng ->
         let p = Proc.spawn eng (fun () -> Proc.sleep 1.0) in
         Proc.on_exit p (fun r -> reason := Some r)));
  check_bool "normal exit" true (!reason = Some Proc.Exit_normal)

let test_proc_exit_crashed () =
  let reason = ref None in
  ignore
    (run_sim (fun eng ->
         let p = Proc.spawn eng (fun () -> failwith "boom") in
         Proc.on_exit p (fun r -> reason := Some r)));
  match !reason with
  | Some (Proc.Exit_crashed (Failure m)) -> check Alcotest.string "msg" "boom" m
  | _ -> Alcotest.fail "expected crash"

let test_proc_kill_waiting () =
  let reason = ref None in
  let cleanup = ref false in
  ignore
    (run_sim (fun eng ->
         let victim =
           Proc.spawn eng ~name:"victim" (fun () ->
               Fun.protect
                 ~finally:(fun () -> cleanup := true)
                 (fun () -> Proc.sleep 100.0))
         in
         Proc.on_exit victim (fun r -> reason := Some r);
         ignore
           (Proc.spawn eng ~name:"killer" (fun () ->
                Proc.sleep 1.0;
                Proc.kill victim))));
  check_bool "killed" true (!reason = Some Proc.Exit_killed);
  check_bool "finalizer ran" true !cleanup

let test_proc_kill_embryo () =
  let reason = ref None in
  let eng = Engine.create () in
  let p = Proc.spawn eng (fun () -> Alcotest.fail "must not start") in
  Proc.on_exit p (fun r -> reason := Some r);
  Proc.kill p;
  ignore (Engine.run eng);
  check_bool "killed before start" true (!reason = Some Proc.Exit_killed)

let test_proc_kill_idempotent () =
  let count = ref 0 in
  ignore
    (run_sim (fun eng ->
         let victim = Proc.spawn eng (fun () -> Proc.sleep 50.0) in
         Proc.on_exit victim (fun _ -> incr count);
         ignore
           (Proc.spawn eng (fun () ->
                Proc.sleep 1.0;
                Proc.kill victim;
                Proc.kill victim))));
  check_int "one exit" 1 !count

let test_proc_freeze_delays () =
  (* A frozen process does not advance; unfreezing delivers buffered
     wake-ups. *)
  let woke_at = ref 0.0 in
  ignore
    (run_sim (fun eng ->
         let sleeper =
           Proc.spawn eng (fun () ->
               Proc.sleep 2.0;
               woke_at := Engine.now eng)
         in
         ignore
           (Proc.spawn eng (fun () ->
                Proc.sleep 1.0;
                Proc.freeze sleeper;
                Proc.sleep 9.0;
                Proc.unfreeze sleeper))));
  check_float "woke only after unfreeze" 10.0 !woke_at

let test_proc_freeze_mailbox () =
  let got = ref [] in
  ignore
    (run_sim (fun eng ->
         let mb = Mailbox.create () in
         let consumer =
           Proc.spawn eng (fun () ->
               for _ = 1 to 3 do
                 let v = Mailbox.recv mb in
                 got := (v, Engine.now eng) :: !got
               done)
         in
         ignore
           (Proc.spawn eng (fun () ->
                Proc.sleep 1.0;
                Mailbox.send mb 1;
                Proc.sleep 1.0;
                Proc.freeze consumer;
                Mailbox.send mb 2;
                Mailbox.send mb 3;
                Proc.sleep 5.0;
                Proc.unfreeze consumer))));
  let got = List.rev !got in
  check_int "three received" 3 (List.length got);
  (match got with
  | (v1, t1) :: (v2, t2) :: (v3, t3) :: _ ->
      check_int "v1" 1 v1;
      check_float "t1" 1.0 t1;
      check_int "v2" 2 v2;
      check_float "t2 after unfreeze" 7.0 t2;
      check_int "v3" 3 v3;
      check_float "t3 after unfreeze" 7.0 t3
  | _ -> Alcotest.fail "missing messages")

let test_proc_join () =
  let joined = ref None in
  ignore
    (run_sim (fun eng ->
         let worker = Proc.spawn eng (fun () -> Proc.sleep 4.0) in
         ignore
           (Proc.spawn eng (fun () ->
                let r = Proc.join worker in
                joined := Some (r, Engine.now eng)))));
  match !joined with
  | Some (Proc.Exit_normal, t) -> check_float "joined at 4" 4.0 t
  | _ -> Alcotest.fail "join failed"

let test_proc_join_already_dead () =
  let ok = ref false in
  ignore
    (run_sim (fun eng ->
         let worker = Proc.spawn eng (fun () -> ()) in
         ignore
           (Proc.spawn eng (fun () ->
                Proc.sleep 5.0;
                ok := Proc.join worker = Proc.Exit_normal))));
  check_bool "joined dead process" true !ok

let test_proc_self () =
  let name = ref "" in
  ignore
    (run_sim (fun eng ->
         ignore (Proc.spawn eng ~name:"alpha" (fun () -> name := Proc.name (Proc.self ())))));
  check Alcotest.string "self name" "alpha" !name

let test_proc_kill_self () =
  let reason = ref None in
  ignore
    (run_sim (fun eng ->
         let p =
           Proc.spawn eng (fun () ->
               Proc.kill (Proc.self ());
               (* Death takes effect at the next suspension point. *)
               Proc.sleep 1.0;
               Alcotest.fail "unreachable")
         in
         Proc.on_exit p (fun r -> reason := Some r)));
  check_bool "self-kill" true (!reason = Some Proc.Exit_killed)

let test_proc_freeze_running_takes_effect_at_suspension () =
  (* Freezing a process that is between suspensions stops it at its next
     suspension point (SIGSTOP semantics at sim granularity). *)
  let steps = ref [] in
  ignore
    (run_sim (fun eng ->
         let p =
           Proc.spawn eng (fun () ->
               for i = 1 to 3 do
                 Proc.sleep 1.0;
                 steps := (i, Engine.now eng) :: !steps
               done)
         in
         ignore
           (Proc.spawn eng (fun () ->
                Proc.sleep 1.5;
                Proc.freeze p;
                Proc.sleep 10.0;
                Proc.unfreeze p))));
  match List.rev !steps with
  | [ (1, t1); (2, t2); (3, t3) ] ->
      check_float "step 1 before freeze" 1.0 t1;
      check_bool "step 2 held until unfreeze" true (t2 >= 11.5);
      check_bool "step 3 after" true (t3 > t2)
  | _ -> Alcotest.fail "unexpected steps"

let test_proc_double_freeze_single_unfreeze () =
  (* freeze is idempotent: one unfreeze resumes. *)
  let woke = ref 0.0 in
  ignore
    (run_sim (fun eng ->
         let p =
           Proc.spawn eng (fun () ->
               Proc.sleep 1.0;
               woke := Engine.now eng)
         in
         Proc.freeze p;
         Proc.freeze p;
         Engine.schedule eng ~delay:5.0 (fun () -> Proc.unfreeze p) |> ignore));
  (* Frozen before its first step: the body starts at the unfreeze (5 s)
     and sleeps 1 s. *)
  check_float "resumed after single unfreeze" 6.0 !woke

let test_engine_pending () =
  let eng = Engine.create () in
  let h = Engine.schedule eng ~delay:1.0 (fun () -> ()) in
  Engine.schedule eng ~delay:2.0 (fun () -> ()) |> ignore;
  check_int "two pending" 2 (Engine.pending eng);
  Engine.cancel h;
  check_int "one after cancel" 1 (Engine.pending eng);
  ignore (Engine.run eng);
  check_int "none after run" 0 (Engine.pending eng)

let test_trace_queries () =
  let t = Trace.create () in
  Trace.record t ~time:1.0 ~source:"a" ~event:"x" "1";
  Trace.record t ~time:2.0 ~source:"b" ~event:"y" "2";
  Trace.record t ~time:3.0 ~source:"a" ~event:"x" "3";
  check_int "length" 3 (Trace.length t);
  check_int "count x" 2 (Trace.count t ~event:"x");
  check_bool "last x" true
    (match Trace.last t ~event:"x" with Some e -> e.Trace.detail = "3" | None -> false);
  check_bool "last_time" true (Trace.last_time t ~event:"y" = Some 2.0);
  check_int "find_all" 2 (List.length (Trace.find_all t ~event:"x"));
  Trace.clear t;
  check_int "cleared" 0 (Trace.length t)

let test_heap_filter_in_place () =
  let h = Heap.create ~compare:Int.compare in
  List.iter (Heap.push h) (List.init 20 (fun i -> 20 - i));
  Heap.filter_in_place h ~keep:(fun x -> x mod 2 = 0);
  check_int "half survive" 10 (Heap.length h);
  let rec drain acc =
    match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
  in
  check (Alcotest.list Alcotest.int) "pop order intact"
    [ 2; 4; 6; 8; 10; 12; 14; 16; 18; 20 ]
    (drain []);
  List.iter (Heap.push h) [ 3; 1; 2 ];
  Heap.filter_in_place h ~keep:(fun _ -> false);
  check_bool "drop all" true (Heap.is_empty h)

let test_engine_tombstone_compaction () =
  let eng = Engine.create () in
  let executed = ref 0 in
  let handles =
    List.init 100 (fun i ->
        Engine.schedule eng ~delay:(float_of_int (i + 1)) (fun () -> incr executed))
  in
  check_int "queue holds all" 100 (Engine.queue_size eng);
  (* Cancel 60: once tombstones outnumber live events the engine compacts
     the queue instead of carrying the dead weight to the pop loop. *)
  List.iteri (fun i h -> if i < 60 then Engine.cancel h) handles;
  check_int "pending is live count" 40 (Engine.pending eng);
  check_bool "compaction shrank the queue" true (Engine.queue_size eng < 100);
  ignore (Engine.run eng);
  check_int "only live events ran" 40 !executed;
  check_int "drained" 0 (Engine.pending eng)

let test_trace_level_gate () =
  let t = Trace.create ~level:Trace.Summary () in
  check_bool "summary enabled" true (Trace.enabled t Trace.Summary);
  check_bool "full gated" false (Trace.enabled t Trace.Full);
  Trace.record t ~time:1.0 ~source:"s" ~event:"milestone" "kept";
  Trace.record ~level:Trace.Full t ~time:2.0 ~source:"s" ~event:"chatter" "dropped";
  Trace.record_fmt ~level:Trace.Full t ~time:3.0 ~source:"s" ~event:"chatter" "x %d" 5;
  Trace.record_lazy ~level:Trace.Full t ~time:4.0 ~source:"s" ~event:"chatter" (fun () ->
      Alcotest.fail "gated-out lazy detail must not render");
  check_int "only the milestone survives" 1 (Trace.length t);
  check_int "chatter gone" 0 (Trace.count t ~event:"chatter");
  let full = Trace.create () in
  Trace.record ~level:Trace.Full full ~time:1.0 ~source:"s" ~event:"chatter" "kept";
  check_int "full trace keeps chatter" 1 (Trace.length full)

let test_trace_lazy_memoized () =
  let t = Trace.create () in
  let calls = ref 0 in
  Trace.record_lazy t ~time:1.0 ~source:"s" ~event:"e" (fun () ->
      incr calls;
      "rendered");
  check_int "not rendered while unread" 0 !calls;
  check_int "length does not render" 1 (Trace.length t);
  check_int "count does not render" 1 (Trace.count t ~event:"e");
  check_bool "first read renders" true
    (match Trace.last t ~event:"e" with
    | Some e -> e.Trace.detail = "rendered"
    | None -> false);
  ignore (Trace.entries t);
  check_int "rendered exactly once" 1 !calls

let test_rng_copy_independent () =
  let a = Rng.create 5L in
  ignore (Rng.int a 10);
  let b = Rng.copy a in
  check_int "copies agree" (Rng.int a 1000) (Rng.int b 1000)

let test_rng_exponential_positive () =
  let rng = Rng.create 2L in
  for _ = 1 to 200 do
    check_bool "positive" true (Rng.exponential rng ~mean:3.0 > 0.0)
  done

(* ------------------------------------------------------------------ *)
(* Mailbox *)

let test_mailbox_fifo () =
  let got = ref [] in
  ignore
    (run_sim (fun eng ->
         let mb = Mailbox.create () in
         List.iter (Mailbox.send mb) [ 1; 2; 3 ];
         ignore
           (Proc.spawn eng (fun () ->
                for _ = 1 to 3 do
                  got := Mailbox.recv mb :: !got
                done))));
  check (Alcotest.list Alcotest.int) "fifo order" [ 1; 2; 3 ] (List.rev !got)

let test_mailbox_blocking () =
  let got = ref None in
  ignore
    (run_sim (fun eng ->
         let mb = Mailbox.create () in
         ignore
           (Proc.spawn eng (fun () ->
                let v = Mailbox.recv mb in
                got := Some (v, Engine.now eng)));
         ignore
           (Proc.spawn eng (fun () ->
                Proc.sleep 2.5;
                Mailbox.send mb "hello"))));
  match !got with
  | Some (v, t) ->
      check Alcotest.string "value" "hello" v;
      check_float "blocked until send" 2.5 t
  | None -> Alcotest.fail "never received"

let test_mailbox_timeout_expires () =
  let got = ref (Some "sentinel") in
  ignore
    (run_sim (fun eng ->
         let mb = Mailbox.create () in
         ignore (Proc.spawn eng (fun () -> got := Mailbox.recv_timeout mb ~timeout:3.0))));
  check_bool "timed out" true (!got = None)

let test_mailbox_timeout_delivers () =
  let got = ref None in
  ignore
    (run_sim (fun eng ->
         let mb = Mailbox.create () in
         ignore (Proc.spawn eng (fun () -> got := Mailbox.recv_timeout mb ~timeout:3.0));
         ignore
           (Proc.spawn eng (fun () ->
                Proc.sleep 1.0;
                Mailbox.send mb 99))));
  check_bool "delivered" true (!got = Some 99)

let test_mailbox_killed_waiter_not_lost () =
  (* If a waiter dies, a message sent afterwards must go to the next
     waiter, not vanish. *)
  let got = ref None in
  ignore
    (run_sim (fun eng ->
         let mb = Mailbox.create () in
         let doomed = Proc.spawn eng ~name:"doomed" (fun () -> ignore (Mailbox.recv mb)) in
         ignore
           (Proc.spawn eng ~name:"second" (fun () ->
                Proc.sleep 1.0;
                got := Some (Mailbox.recv mb)));
         ignore
           (Proc.spawn eng (fun () ->
                Proc.sleep 2.0;
                Proc.kill doomed;
                Proc.sleep 1.0;
                Mailbox.send mb 7))));
  check_bool "second waiter got it" true (!got = Some 7)

let test_mailbox_two_consumers () =
  let got = ref [] in
  ignore
    (run_sim (fun eng ->
         let mb = Mailbox.create () in
         for i = 1 to 2 do
           ignore
             (Proc.spawn eng (fun () ->
                  let v = Mailbox.recv mb in
                  got := (i, v) :: !got))
         done;
         ignore
           (Proc.spawn eng (fun () ->
                Proc.sleep 1.0;
                Mailbox.send mb "x";
                Mailbox.send mb "y"))));
  check_int "both consumers woke" 2 (List.length !got)

(* ------------------------------------------------------------------ *)
(* Ivar *)

let test_ivar_fill_read () =
  let got = ref 0 in
  ignore
    (run_sim (fun eng ->
         let iv = Ivar.create () in
         ignore (Proc.spawn eng (fun () -> got := Ivar.read iv));
         ignore
           (Proc.spawn eng (fun () ->
                Proc.sleep 1.0;
                Ivar.fill iv 42))));
  check_int "read value" 42 !got

let test_ivar_multiple_readers () =
  let sum = ref 0 in
  ignore
    (run_sim (fun eng ->
         let iv = Ivar.create () in
         for _ = 1 to 5 do
           ignore (Proc.spawn eng (fun () -> sum := !sum + Ivar.read iv))
         done;
         ignore
           (Proc.spawn eng (fun () ->
                Proc.sleep 1.0;
                Ivar.fill iv 10))));
  check_int "all readers woke" 50 !sum

let test_ivar_double_fill () =
  let iv = Ivar.create () in
  Ivar.fill iv 1;
  check_bool "try_fill refused" false (Ivar.try_fill iv 2);
  Alcotest.check_raises "fill raises" (Invalid_argument "Ivar.fill: already filled") (fun () ->
      Ivar.fill iv 3);
  check_bool "value kept" true (Ivar.peek iv = Some 1)

let test_ivar_read_after_fill () =
  let got = ref 0 in
  ignore
    (run_sim (fun eng ->
         let iv = Ivar.create () in
         Ivar.fill iv 5;
         ignore (Proc.spawn eng (fun () -> got := Ivar.read iv))));
  check_int "immediate read" 5 !got

(* ------------------------------------------------------------------ *)
(* Determinism property: same seed, same trace. *)

(* Full-stack fingerprint: fibers, mailbox, RNG-driven sleeps. *)
let sim_fingerprint seed =
  let eng = Engine.create ~seed () in
  let mb = Mailbox.create () in
  let log = Buffer.create 64 in
  let rng = Rng.split (Engine.rng eng) in
  for i = 1 to 5 do
    ignore
      (Proc.spawn eng ~name:(Printf.sprintf "w%d" i) (fun () ->
           Proc.sleep (Rng.float rng 10.0);
           Mailbox.send mb i))
  done;
  ignore
    (Proc.spawn eng ~name:"collector" (fun () ->
         for _ = 1 to 5 do
           let v = Mailbox.recv mb in
           Buffer.add_string log (Printf.sprintf "%d@%.6f;" v (Engine.now eng))
         done));
  ignore (Engine.run eng);
  Buffer.contents log

let prop_determinism =
  QCheck.Test.make ~name:"same seed gives identical execution" ~count:50
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let seed = Int64.of_int seed in
      String.equal (sim_fingerprint seed) (sim_fingerprint seed))

let prop_sleep_ordering =
  QCheck.Test.make ~name:"processes wake in sleep order" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 10) (float_range 0.0 100.0))
    (fun delays ->
      let eng = Engine.create () in
      let woke = ref [] in
      List.iter
        (fun d -> ignore (Proc.spawn eng (fun () -> Proc.sleep d; woke := d :: !woke)))
        delays;
      ignore (Engine.run eng);
      let woke = List.rev !woke in
      List.sort_uniq compare woke = List.sort_uniq compare delays
      && List.for_all2 (fun a b -> a <= b)
           (List.filteri (fun i _ -> i < List.length woke - 1) woke)
           (List.tl woke))

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_heap_sorts; prop_heap_model; prop_determinism; prop_sleep_ordering ] in
  Alcotest.run "simkern"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "int_in_range" `Quick test_rng_int_in_range;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "invalid args" `Quick test_rng_invalid;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "copy independent" `Quick test_rng_copy_independent;
          Alcotest.test_case "exponential positive" `Quick test_rng_exponential_positive;
        ] );
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "empty" `Quick test_heap_empty;
          Alcotest.test_case "duplicates" `Quick test_heap_duplicates;
          Alcotest.test_case "filter in place" `Quick test_heap_filter_in_place;
          Alcotest.test_case "pop releases elements" `Quick test_heap_pop_releases;
        ] );
      ( "engine",
        [
          Alcotest.test_case "time order" `Quick test_engine_time_order;
          Alcotest.test_case "same instant fifo" `Quick test_engine_same_instant_fifo;
          Alcotest.test_case "deadline" `Quick test_engine_deadline;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "halt" `Quick test_engine_halt;
          Alcotest.test_case "nested schedule" `Quick test_engine_nested_schedule;
          Alcotest.test_case "past schedule rejected" `Quick test_engine_past_schedule_rejected;
          Alcotest.test_case "trace" `Quick test_engine_trace;
          Alcotest.test_case "pending" `Quick test_engine_pending;
          Alcotest.test_case "trace queries" `Quick test_trace_queries;
          Alcotest.test_case "tombstone compaction" `Quick test_engine_tombstone_compaction;
          Alcotest.test_case "trace level gate" `Quick test_trace_level_gate;
          Alcotest.test_case "trace lazy memoized" `Quick test_trace_lazy_memoized;
          Alcotest.test_case "stop before" `Quick test_engine_stop_before;
          Alcotest.test_case "run one" `Quick test_engine_run_one;
          Alcotest.test_case "retime keeps slot" `Quick test_engine_retime_keeps_slot;
          Alcotest.test_case "snapshot restore" `Quick test_engine_snapshot_restore;
        ] );
      ( "regions",
        [
          Alcotest.test_case "cancel shard head" `Quick
            test_engine_cancel_queue_head;
        ] );
      ( "proc",
        [
          Alcotest.test_case "runs" `Quick test_proc_runs;
          Alcotest.test_case "sleep advances time" `Quick test_proc_sleep_advances_time;
          Alcotest.test_case "exit normal" `Quick test_proc_exit_normal;
          Alcotest.test_case "exit crashed" `Quick test_proc_exit_crashed;
          Alcotest.test_case "kill waiting" `Quick test_proc_kill_waiting;
          Alcotest.test_case "kill embryo" `Quick test_proc_kill_embryo;
          Alcotest.test_case "kill idempotent" `Quick test_proc_kill_idempotent;
          Alcotest.test_case "freeze delays" `Quick test_proc_freeze_delays;
          Alcotest.test_case "freeze mailbox" `Quick test_proc_freeze_mailbox;
          Alcotest.test_case "join" `Quick test_proc_join;
          Alcotest.test_case "join dead" `Quick test_proc_join_already_dead;
          Alcotest.test_case "self" `Quick test_proc_self;
          Alcotest.test_case "kill self" `Quick test_proc_kill_self;
          Alcotest.test_case "freeze running" `Quick
            test_proc_freeze_running_takes_effect_at_suspension;
          Alcotest.test_case "double freeze" `Quick test_proc_double_freeze_single_unfreeze;
        ] );
      ( "mailbox",
        [
          Alcotest.test_case "fifo" `Quick test_mailbox_fifo;
          Alcotest.test_case "blocking" `Quick test_mailbox_blocking;
          Alcotest.test_case "timeout expires" `Quick test_mailbox_timeout_expires;
          Alcotest.test_case "timeout delivers" `Quick test_mailbox_timeout_delivers;
          Alcotest.test_case "killed waiter not lost" `Quick test_mailbox_killed_waiter_not_lost;
          Alcotest.test_case "two consumers" `Quick test_mailbox_two_consumers;
        ] );
      ( "ivar",
        [
          Alcotest.test_case "fill read" `Quick test_ivar_fill_read;
          Alcotest.test_case "multiple readers" `Quick test_ivar_multiple_readers;
          Alcotest.test_case "double fill" `Quick test_ivar_double_fill;
          Alcotest.test_case "read after fill" `Quick test_ivar_read_after_fill;
        ] );
      ("properties", qsuite);
    ]
