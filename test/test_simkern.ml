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

(* ------------------------------------------------------------------ *)
(* Heap *)

(* Each payload is its own [(time, seq)] key, so a drain can be compared
   with a sorted list of keys. *)
let push_key h (time, seq) = Heap.push h ~time ~seq (time, seq)

let rec drain h acc = if Heap.is_empty h then List.rev acc else drain h (Heap.pop h :: acc)

let key = Alcotest.(pair (float 0.0) int)

let test_heap_ordering () =
  let h = Heap.create () in
  let keys = [ (5., 0); (3., 1); (8., 2); (1., 3); (9., 4); (3., 5); (7., 6); (1., 7) ] in
  List.iter (push_key h) keys;
  check (Alcotest.list key) "sorted by time, then seq" (List.sort compare keys) (drain h [])

let test_heap_empty () =
  let h = Heap.create () in
  check_bool "empty" true (Heap.is_empty h);
  Alcotest.check_raises "min raises" (Invalid_argument "Heap.min: empty heap") (fun () ->
      ignore (Heap.min h));
  Alcotest.check_raises "pop raises" (Invalid_argument "Heap.pop: empty heap") (fun () ->
      ignore (Heap.pop h))

let test_heap_duplicates () =
  let h = Heap.create () in
  List.iter (push_key h) [ (4., 0); (4., 1); (4., 2); (1., 3); (1., 4) ];
  check_int "length" 5 (Heap.length h);
  check key "equal times break on seq" (1., 3) (Heap.min h);
  check (Alcotest.list key) "drain"
    [ (1., 3); (1., 4); (4., 0); (4., 1); (4., 2) ]
    (drain h [])

(* The engine picks the next event across its queues with these. *)
let test_heap_min_comparisons () =
  let a = Heap.create () and b = Heap.create () in
  push_key a (2., 5);
  push_key b (2., 7);
  check_bool "equal times: lower seq precedes" true (Heap.precedes a b);
  check_bool "and not the reverse" false (Heap.precedes b a);
  let cell = { Heap.now = 2. } in
  check_bool "before (2, 6)" true (Heap.min_before a cell 6);
  check_bool "not before (2, 5)" false (Heap.min_before a cell 5);
  cell.Heap.now <- 1.5;
  check_bool "not before an earlier time" false (Heap.min_before a cell 99);
  check_bool "after 1.5" true (Heap.min_after a 1.5);
  check_bool "not after 2" false (Heap.min_after a 2.);
  check_float "pop_into sets the cell" 2. (ignore (Heap.pop_into a cell); cell.Heap.now)

(* Times drawn from a narrow range so that equal times are common; the
   seq of each key is its insertion index, as the engine assigns it. *)
let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains sorted" ~count:200
    QCheck.(list (int_range 0 10))
    (fun times ->
      let h = Heap.create () in
      let keys = List.mapi (fun seq t -> (float_of_int t, seq)) times in
      List.iter (push_key h) keys;
      drain h [] = List.sort compare keys)

type heap_op = Push of int | Pop | Filter of int | Clear

let pp_heap_op = function
  | Push x -> Printf.sprintf "push %d" x
  | Pop -> "pop"
  | Filter k -> Printf.sprintf "filter(mod %d)" k
  | Clear -> "clear"

(* Interleaved operations against a sorted-list model: every pop, every
   minimum key and every length must agree, not only a final drain.
   Pushed times repeat; seqs are distinct and increasing. *)
let prop_heap_model =
  let op =
    QCheck.Gen.(
      frequency
        [
          (6, map (fun x -> Push x) (int_range (-5) 5));
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
      let h = Heap.create () in
      let model = ref [] and next_seq = ref 0 in
      List.for_all
        (fun op ->
          let agree =
            match op with
            | Push x ->
                let k = (float_of_int x, !next_seq) in
                incr next_seq;
                push_key h k;
                model := List.merge compare [ k ] !model;
                true
            | Pop -> (
                match !model with
                | [] -> Heap.is_empty h
                | k :: rest ->
                    model := rest;
                    Heap.pop h = k)
            | Filter k ->
                let keep (_, seq) = seq mod k <> 0 in
                Heap.filter_in_place h ~keep;
                model := List.filter keep !model;
                true
            | Clear ->
                Heap.filter_in_place h ~keep:(fun _ -> false);
                model := [];
                true
          in
          agree
          && Heap.length h = List.length !model
          &&
          match !model with
          | [] -> Heap.is_empty h
          | k :: _ -> Heap.min h = k)
        ops)

(* Fills a heap with ten boxed payloads, watched through [w]; kept out of
   line so that no local of the caller's frame holds one. *)
let[@inline never] fill_watched h w =
  for i = 0 to Weak.length w - 1 do
    let x = ref i in
    Weak.set w i (Some x);
    Heap.push h ~time:(float_of_int ((i * 7) mod Weak.length w)) ~seq:i x
  done

let test_heap_pop_releases () =
  let h = Heap.create () in
  let w = Weak.create 10 in
  fill_watched h w;
  while not (Heap.is_empty h) do
    ignore (Heap.pop h)
  done;
  Gc.full_major ();
  let reachable = ref 0 in
  for i = 0 to Weak.length w - 1 do
    if Weak.check w i then incr reachable
  done;
  check_int "popped payloads still reachable" 0 !reachable;
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
        Engine.post_at eng ~time:1.0 (fun () -> ());
        Alcotest.fail "expected Invalid_argument"
      with Invalid_argument _ -> ())
  |> ignore;
  ignore (Engine.run eng)

let test_engine_trace () =
  let eng = Engine.create () in
  Engine.schedule eng ~delay:1.5 (fun () -> Engine.record eng ~source:"t" ~event:"tick" "x")
  |> ignore;
  ignore (Engine.run eng);
  match Observe.last (Engine.trace eng) ~event:"tick" with
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
  check_int "captured the queue" 2 (Engine.queue_size eng);
  ignore (Engine.run eng);
  check (Alcotest.list Alcotest.int) "first pass" [ 1; 2; 3; 4 ] (List.rev !log)

(* Posted events share the handle events' sequence counter, so the two
   kinds interleave in queueing order at one instant. *)
let test_engine_post_schedule_order () =
  let eng = Engine.create () in
  let log = ref [] in
  let note name () = log := name :: !log in
  Engine.post eng ~delay:1.0 (note "p1");
  ignore (Engine.schedule eng ~delay:1.0 (note "s1"));
  Engine.post_at eng ~time:1.0 (note "p2");
  ignore (Engine.schedule eng ~delay:1.0 (note "s2"));
  Engine.post eng ~delay:1.0 (fun () ->
      note "p3" ();
      Engine.post eng (note "p5");
      ignore (Engine.schedule eng (note "s4")));
  ignore (Engine.schedule eng ~delay:1.0 (note "s3"));
  ignore (Engine.run eng);
  check (Alcotest.list Alcotest.string) "queueing order"
    [ "p1"; "s1"; "p2"; "s2"; "p3"; "s3"; "p5"; "s4" ]
    (List.rev !log);
  check_float "one instant" 1.0 (Engine.now eng)

let test_engine_pending_posted () =
  let eng = Engine.create () in
  Engine.post eng ~delay:1.0 ignore;
  Engine.post_at eng ~time:2.0 ignore;
  let h = Engine.schedule eng ~delay:3.0 ignore in
  check_int "posted events count" 3 (Engine.pending eng);
  Engine.cancel h;
  check_int "cancel leaves the posted" 2 (Engine.pending eng);
  check_bool "one ran" true (Engine.run_one eng);
  check_int "one left" 1 (Engine.pending eng);
  ignore (Engine.run eng);
  check_int "none after run" 0 (Engine.pending eng)

(* The queue size at a pause counts posted events, zero-delay events of
   the current instant, tombstones and retimed handle events. It is read
   at a breakpoint in the middle of an instant, so zero-delay events are
   queued, and reading it leaves the run unchanged. *)
let test_engine_snapshot_mixed () =
  let eng = Engine.create () in
  let log = ref [] in
  let note name () = log := Printf.sprintf "%s@%g" name (Engine.now eng) :: !log in
  Engine.post eng ~delay:1.0 (note "p1");
  let cancelled = Engine.schedule eng ~delay:4.0 (note "cancelled") in
  let timer = Engine.schedule eng ~delay:2.0 (note "timer") in
  Engine.post eng ~delay:2.0 (fun () ->
      note "p2" ();
      Engine.post eng (note "p2-now");
      Engine.post eng ~delay:0.5 (note "p2-later"));
  let bp = Engine.schedule eng ~delay:2.0 (note "bp") in
  Engine.post_at eng ~time:3.0 (note "p3");
  ignore (Engine.run ~until:1.5 eng);
  Engine.cancel cancelled;
  ignore (Engine.retime timer ~time:3.0);
  check_bool "paused mid-instant" true (Engine.run ~stop_before:bp eng = `Breakpoint);
  check_int "captured every queued event" 6 (Engine.queue_size eng);
  log := [];
  ignore (Engine.run eng);
  check (Alcotest.list Alcotest.string) "first pass"
    [ "bp@2"; "p2-now@2"; "p2-later@2.5"; "timer@3"; "p3@3" ]
    (List.rev !log)

(* A deadline earlier than the clock moves it back while zero-delay
   events of the later instant are still queued; events posted at the
   earlier instant must still run first. *)
let test_engine_post_after_deadline () =
  let eng = Engine.create () in
  let log = ref [] in
  let note name () = log := Printf.sprintf "%s@%g" name (Engine.now eng) :: !log in
  Engine.post eng ~delay:5.0 (fun () ->
      Engine.post eng (note "a");
      Engine.halt eng);
  check_bool "halted" true (Engine.run eng = `Halted);
  check_bool "deadline" true (Engine.run ~until:3.0 eng = `Deadline);
  check_float "clock moved back" 3.0 (Engine.now eng);
  Engine.post eng (note "b");
  ignore (Engine.run eng);
  check (Alcotest.list Alcotest.string) "time order" [ "b@3"; "a@5" ] (List.rev !log)

(* The posting paths allocate nothing per event once the queue's arrays
   have grown. A far-future event keeps the queue from draining (a
   drained heap drops its arrays); each round posts one preallocated
   closure at a preallocated time, or with no delay, and pops it. *)
let test_engine_post_allocation () =
  let eng = Engine.create () in
  Engine.post_at eng ~time:1e9 ignore;
  let time = 1.0 and f () = () in
  let rounds = 100_000 in
  let words_per_event post =
    let loop () =
      for _ = 1 to rounds do
        post ();
        ignore (Engine.run_one eng)
      done
    in
    loop ();
    let before = Gc.minor_words () in
    loop ();
    (Gc.minor_words () -. before) /. float_of_int rounds
  in
  List.iter
    (fun (name, post) ->
      let words = words_per_event post in
      check_bool (Printf.sprintf "%s: at most 1 minor word per event (%.2f)" name words) true
        (words <= 1.0))
    [ ("post_at", fun () -> Engine.post_at eng ~time f); ("post", fun () -> Engine.post eng f) ]

(* A NaN compares false against everything: accepted, it would run ahead
   of earlier events and leave the clock at NaN. *)
let test_engine_nan_rejected () =
  let eng = Engine.create () in
  let ran = ref false in
  ignore (Engine.schedule eng ~delay:1.0 ignore);
  ignore (Engine.schedule eng ~delay:2.0 ignore);
  ignore (Engine.run_one eng);
  let refuses name msg f =
    Alcotest.check_raises name (Invalid_argument msg) (fun () -> f (fun () -> ran := true))
  in
  refuses "schedule" "Engine.schedule: delay is NaN" (fun f ->
      ignore (Engine.schedule eng ~delay:Float.nan f));
  refuses "post" "Engine.post: delay is NaN" (fun f -> Engine.post eng ~delay:Float.nan f);
  refuses "post_at" "Engine.post_at: time is NaN" (fun f ->
      Engine.post_at eng ~time:Float.nan f);
  let h = Engine.schedule eng ~delay:5.0 (fun () -> ran := true) in
  Alcotest.check_raises "retime" (Invalid_argument "Engine.retime: time is NaN") (fun () ->
      ignore (Engine.retime h ~time:Float.nan));
  Engine.cancel h;
  ignore (Engine.run eng);
  check_bool "no refused event ran" false !ran;
  check_float "clock on the last real event" 2.0 (Engine.now eng)

let test_proc_sleep_nan_rejected () =
  let eng = Engine.create () in
  let refused = ref "" in
  ignore
    (Proc.spawn eng (fun () ->
         Proc.sleep 1.0;
         try Proc.sleep Float.nan with Invalid_argument msg -> refused := msg));
  ignore (Engine.run eng);
  check Alcotest.string "refused" "Proc.sleep: duration is NaN" !refused;
  check_float "clock untouched" 1.0 (Engine.now eng)

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

(* Waiting for another process's exit: [on_exit] fills an ivar the
   waiter reads. *)
let join p =
  let exited = Ivar.create () in
  Proc.on_exit p (Ivar.fill exited);
  Ivar.read exited

let test_proc_join () =
  let joined = ref None in
  ignore
    (run_sim (fun eng ->
         let worker = Proc.spawn eng (fun () -> Proc.sleep 4.0) in
         ignore
           (Proc.spawn eng (fun () ->
                let r = join worker in
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
                ok := join worker = Proc.Exit_normal))));
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
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "events in order"
    [ ("a", "x"); ("b", "y"); ("a", "x") ]
    (Trace.events t);
  check
    (Alcotest.list (Alcotest.pair (Alcotest.float 0.0) Alcotest.string))
    "entries in order"
    [ (1.0, "1"); (2.0, "2"); (3.0, "3") ]
    (List.map (fun e -> (e.Trace.time, e.Trace.detail)) (Trace.entries t))

let test_heap_filter_in_place () =
  let h = Heap.create () in
  List.iter (fun i -> push_key h (float_of_int (i / 2), i)) (List.init 20 (fun i -> 19 - i));
  Heap.filter_in_place h ~keep:(fun (_, seq) -> seq mod 2 = 0);
  check_int "half survive" 10 (Heap.length h);
  check (Alcotest.list Alcotest.int) "pop order intact"
    [ 0; 2; 4; 6; 8; 10; 12; 14; 16; 18 ]
    (List.map snd (drain h []));
  List.iter (push_key h) [ (3., 0); (1., 1); (2., 2) ];
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
  Trace.record t ~time:1.0 ~source:"s" ~event:"milestone" "kept";
  Trace.record ~level:Trace.Full t ~time:2.0 ~source:"s" ~event:"chatter" "dropped";
  Trace.record ~level:Trace.Full t ~time:3.0 ~source:"s" ~event:"chatter" "x %d" 5;
  Trace.record ~level:Trace.Full t ~time:4.0 ~source:"s" ~event:"chatter" "%a"
    (fun () () -> Alcotest.fail "gated-out detail must not be formatted")
    ();
  check_int "only the milestone survives" 1 (Trace.length t);
  check_int "milestone kept" 1 (Observe.count t ~event:"milestone");
  check_int "chatter gone" 0 (Observe.count t ~event:"chatter");
  let full = Trace.create () in
  Trace.record ~level:Trace.Full full ~time:1.0 ~source:"s" ~event:"chatter" "kept";
  check_int "full trace keeps chatter" 1 (Trace.length full)

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

let test_mailbox_killed_waiter_not_lost () =
  (* If the reader dies, a message sent afterwards must be queued for
     the next reader, not vanish. *)
  let got = ref None in
  ignore
    (run_sim (fun eng ->
         let mb = Mailbox.create () in
         let doomed = Proc.spawn eng ~name:"doomed" (fun () -> ignore (Mailbox.recv mb)) in
         ignore
           (Proc.spawn eng ~name:"second" (fun () ->
                Proc.sleep 4.0;
                got := Some (Mailbox.recv mb)));
         ignore
           (Proc.spawn eng (fun () ->
                Proc.sleep 2.0;
                Proc.kill doomed;
                Proc.sleep 1.0;
                Mailbox.send mb 7))));
  check_bool "next reader got it" true (!got = Some 7)

(* A mailbox has one reader at a time: a second process blocking in
   [recv] is refused, and the first still gets the message. *)
let test_mailbox_two_consumers () =
  let got = ref None and refused = ref None in
  ignore
    (run_sim (fun eng ->
         let mb = Mailbox.create () in
         ignore (Proc.spawn eng (fun () -> got := Some (Mailbox.recv mb)));
         ignore
           (Proc.spawn eng (fun () ->
                (try ignore (Mailbox.recv mb) with Invalid_argument msg -> refused := Some msg);
                Proc.sleep 1.0;
                Mailbox.send mb "x"))));
  check_bool "second reader refused" true
    (!refused = Some "Mailbox.recv: another process is blocked in it");
  check_bool "first reader got it" true (!got = Some "x")

(* ------------------------------------------------------------------ *)
(* Wake-up invariants *)

(* A timed-out receive leaves its waker on the connection. Data that
   arrives while the process waits again, asleep or on an ivar, must not
   wake that later suspension; it stays queued for the next receive.
   Times are relative to the accept, [t0]. *)
let test_proc_stale_waker () =
  let module Net = Simnet.Net in
  let got = ref (Some Net.Closed) and woke_at = ref 0.0 and queued = ref None in
  let expired = ref None and read = ref None and other_queued = ref None in
  ignore
    (run_sim (fun eng ->
         let net = Net.create eng () and iv = Ivar.create () in
         ignore
           (Proc.spawn eng (fun () ->
                let accept port = Option.get (Net.accept (Net.listen net ~host:1 ~port)) in
                let a = accept 80 in
                let b = accept 81 in
                let since t0 = Engine.now eng -. t0 in
                let t0 = Engine.now eng in
                got := Net.recv_timeout a ~timeout:3.0;
                Proc.sleep 10.0;
                woke_at := since t0;
                queued := Some (Net.recv a, since t0);
                expired := Some (Net.recv_timeout b ~timeout:1.0);
                let v = Ivar.read iv in
                read := Some (v, since t0);
                other_queued := Some (Net.recv_timeout b ~timeout:1.0)));
         ignore
           (Proc.spawn eng (fun () ->
                let connect port = Result.get_ok (Net.connect net ~host:0 ~to_host:1 ~to_port:port) in
                let a = connect 80 in
                let b = connect 81 in
                Proc.sleep 5.0;
                ignore (Net.send a 42);
                Proc.sleep 10.0;
                ignore (Net.send b 99);
                Proc.sleep 5.0;
                Ivar.fill iv "late"))));
  let near = Alcotest.float 1e-2 in
  check_bool "timed out" true (!got = None);
  check near "sleep ran its full length" 13.0 !woke_at;
  (match !queued with
  | Some (Net.Data 42, t) -> check near "data still queued" 13.0 t
  | _ -> Alcotest.fail "data lost");
  check_bool "second receive timed out" true (!expired = Some None);
  (match !read with
  | Some (v, t) ->
      check Alcotest.string "ivar value" "late" v;
      check near "ivar read waited for its fill" 20.0 t
  | None -> Alcotest.fail "ivar never read");
  check_bool "second data still queued" true (!other_queued = Some (Some (Net.Data 99)))

(* A kill between a wake-up and its resume takes effect at the next
   suspension: the woken process still runs up to it. *)
let test_proc_kill_after_wakeup () =
  let got = ref None and exited_at = ref None in
  ignore
    (run_sim (fun eng ->
         let mb = Mailbox.create () in
         let p =
           Proc.spawn eng (fun () ->
               got := Some (Mailbox.recv mb);
               Proc.sleep 1.0;
               Alcotest.fail "unreachable")
         in
         Proc.on_exit p (fun r -> exited_at := Some (r, Engine.now eng));
         ignore
           (Proc.spawn eng (fun () ->
                Proc.sleep 1.0;
                Mailbox.send mb 7;
                Proc.kill p))));
  check_bool "resumed with the value" true (!got = Some 7);
  check_bool "killed at the next suspension" true (!exited_at = Some (Proc.Exit_killed, 1.0))

(* Kill overrides freeze for a parked process. *)
let test_proc_kill_frozen_parked () =
  let cleanup = ref false and exited_at = ref None in
  ignore
    (run_sim (fun eng ->
         let p =
           Proc.spawn eng (fun () ->
               Fun.protect ~finally:(fun () -> cleanup := true) (fun () -> Proc.sleep 100.0))
         in
         Proc.on_exit p (fun r -> exited_at := Some (r, Engine.now eng));
         ignore
           (Proc.spawn eng (fun () ->
                Proc.sleep 1.0;
                Proc.freeze p;
                Proc.sleep 1.0;
                Proc.kill p))));
  check_bool "killed at once" true (!exited_at = Some (Proc.Exit_killed, 2.0));
  check_bool "finalizer ran" true !cleanup

let test_proc_sleep_doomed () =
  let exited_at = ref None in
  let eng =
    run_sim (fun eng ->
        let p =
          Proc.spawn eng (fun () ->
              Proc.sleep 1.0;
              Proc.kill (Proc.self ());
              Proc.sleep 5.0;
              Alcotest.fail "unreachable")
        in
        Proc.on_exit p (fun r -> exited_at := Some (r, Engine.now eng)))
  in
  check_bool "died at once" true (!exited_at = Some (Proc.Exit_killed, 1.0));
  check_float "no timer posted" 1.0 (Engine.now eng)

(* ------------------------------------------------------------------ *)
(* Wait slots *)

(* A kill discontinues a slot waiter at once, leaves the slot stale, and
   a mailbox whose slot waiter died hands its next message to the next
   reader. *)
let test_slot_killed_waiter () =
  let finalized = ref [] and late_fill = ref None and got = ref None in
  ignore
    (run_sim (fun eng ->
         let s = Proc.slot () and mb = Mailbox.create () in
         let waiter name wait =
           Proc.spawn eng ~name (fun () ->
               Fun.protect
                 ~finally:(fun () -> finalized := (name, Engine.now eng) :: !finalized)
                 wait)
         in
         let in_slot = waiter "in-slot" (fun () -> ignore (Proc.await s)) in
         let reader = waiter "reader" (fun () -> ignore (Mailbox.recv mb)) in
         ignore
           (Proc.spawn eng (fun () ->
                Proc.sleep 2.0;
                Proc.kill in_slot;
                Proc.kill reader;
                Proc.sleep 1.0;
                late_fill := Some (Proc.fill s 5);
                Mailbox.send mb 7;
                ignore (Proc.spawn eng (fun () -> got := Some (Mailbox.recv mb)))))));
  check
    (Alcotest.list (Alcotest.pair Alcotest.string (Alcotest.float 1e-9)))
    "finalizers ran at the kill" [ ("in-slot", 2.0); ("reader", 2.0) ] (List.rev !finalized);
  check_bool "a later fill is refused" true (!late_fill = Some false);
  check_bool "the next reader got the next message" true (!got = Some 7)

let test_slot_frozen_waiter () =
  let filled = ref None and resumed = ref None in
  ignore
    (run_sim (fun eng ->
         let s = Proc.slot () in
         let p =
           Proc.spawn eng (fun () ->
               let v = Proc.await s in
               resumed := Some (v, Engine.now eng))
         in
         ignore
           (Proc.spawn eng (fun () ->
                Proc.sleep 1.0;
                Proc.freeze p;
                Proc.sleep 1.0;
                filled := Some (Proc.fill s 9);
                Proc.sleep 3.0;
                Proc.unfreeze p))));
  check_bool "the fill was accepted" true (!filled = Some true);
  check_bool "resumed only at unfreeze" true (!resumed = Some (9, 5.0))

(* The first reader waits in the mailbox's slot, the second in its
   waker list; sends go oldest waiter first. *)
(* The computation process posts its receive before it waits, so a
   process doomed before [recv] still reaches its daemon. *)
let test_app_ctx_doomed_recv_posts () =
  let posted = ref [] and exited = ref None in
  ignore
    (run_sim (fun eng ->
         let ctx =
           Mpivcl.Daemon.app_ctx (Rng.create 1L) ~rank:0 ~size:2 ~state:[| 0 |]
             ~set_app_var:(fun _ _ -> ())
             (fun req -> posted := req :: !posted)
         in
         let p =
           Proc.spawn eng (fun () ->
               Proc.kill (Proc.self ());
               ignore (ctx.Mpivcl.App.recv ~src:1 ~tag:3);
               Alcotest.fail "unreachable")
         in
         Proc.on_exit p (fun r -> exited := Some (r, Engine.now eng))));
  (match !posted with
  | [ Mpivcl.Daemon.A_recv { src = 1; tag = 3; reply } ] ->
      check_bool "its slot is stale" false (Proc.fill reply 0)
  | _ -> Alcotest.fail "expected exactly one A_recv");
  check_bool "killed at the receive" true (!exited = Some (Proc.Exit_killed, 0.0))

(* Allocation bounds of the wait and wake-up path, per operation, after a
   warm-up: they fail if a suspension, a wake-up or a hand-off grows. *)
let words_per_op ~ops loop =
  loop ();
  let before = Gc.minor_words () in
  loop ();
  (Gc.minor_words () -. before) /. float_of_int ops

let test_mailbox_handoff_allocation () =
  let rounds = 10_000 in
  let loop () =
    ignore
      (run_sim (fun eng ->
           let ping = Mailbox.create () and pong = Mailbox.create () in
           ignore
             (Proc.spawn eng (fun () ->
                  for _ = 1 to rounds do
                    Mailbox.send pong (Mailbox.recv ping)
                  done));
           ignore
             (Proc.spawn eng (fun () ->
                  for i = 1 to rounds do
                    Mailbox.send ping i;
                    ignore (Mailbox.recv pong)
                  done))))
  in
  let words = words_per_op ~ops:(2 * rounds) loop in
  check_bool (Printf.sprintf "at most 8 minor words per message (%.2f)" words) true
    (words <= 8.0)

let test_proc_sleep_allocation () =
  let rounds = 10_000 in
  let loop () =
    ignore
      (run_sim (fun eng ->
           ignore
             (Proc.spawn eng (fun () ->
                  for _ = 1 to rounds do
                    Proc.yield ()
                  done))))
  in
  let words = words_per_op ~ops:rounds loop in
  check_bool (Printf.sprintf "at most 20 minor words per sleep (%.2f)" words) true
    (words <= 20.0)

(* One receive round trip between a computation process and a daemon
   that answers every [A_recv] at once. *)
let test_mpi_recv_allocation () =
  let rounds = 10_000 in
  let loop () =
    ignore
      (run_sim (fun eng ->
           let requests = Mailbox.create () in
           let ctx =
             Mpivcl.Daemon.app_ctx (Rng.create 1L) ~rank:0 ~size:2 ~state:[| 0 |]
               ~set_app_var:(fun _ _ -> ())
               (Mailbox.send requests)
           in
           ignore
             (Proc.spawn eng (fun () ->
                  for _ = 1 to rounds do
                    match Mailbox.recv requests with
                    | Mpivcl.Daemon.A_recv { tag; reply; _ } -> ignore (Proc.fill reply tag)
                    | A_send _ | A_commit _ | A_finalize -> ()
                  done));
           ignore
             (Proc.spawn eng (fun () ->
                  for i = 1 to rounds do
                    ignore (ctx.Mpivcl.App.recv ~src:1 ~tag:i)
                  done))))
  in
  let words = words_per_op ~ops:rounds loop in
  check_bool (Printf.sprintf "at most 19 minor words per receive (%.2f)" words) true
    (words <= 19.0)

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

(* [Engine.pending] against a count of live events (queued, neither run
   nor cancelled) after every step of a random mix of the queueing, cancel,
   retime and run entry points. [Burst] and [Cancel_all] queue more than
   the compaction threshold and then make tombstones the majority, so
   compaction runs in most sequences. *)
type engine_op =
  | Post
  | Post_delay of int
  | Post_at of int
  | Schedule of int
  | Burst
  | Cancel of int
  | Cancel_all
  | Retime of int * int
  | Run_one
  | Run_until of int

let pp_engine_op = function
  | Post -> "post"
  | Post_delay d -> Printf.sprintf "post ~delay:%d" d
  | Post_at d -> Printf.sprintf "post_at now+%d" d
  | Schedule d -> Printf.sprintf "schedule ~delay:%d" d
  | Burst -> "burst"
  | Cancel i -> Printf.sprintf "cancel #%d" i
  | Cancel_all -> "cancel all"
  | Retime (i, d) -> Printf.sprintf "retime #%d now+%d" i d
  | Run_one -> "run_one"
  | Run_until d -> Printf.sprintf "run ~until:now+%d" d

type tracked = { mutable handle : Engine.handle; ran : bool ref; mutable cancelled : bool }

let prop_engine_pending =
  let gap = QCheck.Gen.int_range 0 5 in
  let op =
    QCheck.Gen.(
      frequency
        [
          (3, return Post);
          (3, map (fun d -> Post_delay d) gap);
          (2, map (fun d -> Post_at d) gap);
          (4, map (fun d -> Schedule d) gap);
          (1, return Burst);
          (4, map (fun i -> Cancel i) (int_bound 200));
          (1, return Cancel_all);
          (2, map2 (fun i d -> Retime (i, d)) (int_bound 200) gap);
          (3, return Run_one);
          (1, map (fun d -> Run_until d) gap);
        ])
  in
  QCheck.Test.make ~name:"pending counts live events" ~count:200
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_engine_op ops))
       QCheck.Gen.(list_size (int_bound 120) op))
    (fun ops ->
      let eng = Engine.create () in
      let added = ref 0 and ran = ref 0 and cancelled = ref 0 in
      let handles = ref [||] in
      let thunk () = incr ran in
      let at d = Engine.now eng +. float_of_int d in
      let schedule d =
        incr added;
        let ran = ref false in
        let handle =
          Engine.schedule eng ~delay:(float_of_int d) (fun () ->
              ran := true;
              thunk ())
        in
        let t = { handle; ran; cancelled = false } in
        handles := Array.append !handles [| t |]
      in
      let live t = not (!(t.ran) || t.cancelled) in
      let cancel t =
        if live t then incr cancelled;
        t.cancelled <- true;
        Engine.cancel t.handle
      in
      let nth i f = if Array.length !handles > 0 then f !handles.(i mod Array.length !handles) in
      List.for_all
        (fun op ->
          (match op with
          | Post ->
              incr added;
              Engine.post eng thunk
          | Post_delay d ->
              incr added;
              Engine.post eng ~delay:(float_of_int d) thunk
          | Post_at d ->
              incr added;
              Engine.post_at eng ~time:(at d) thunk
          | Schedule d -> schedule d
          | Burst ->
              for i = 1 to 70 do
                schedule (i mod 6)
              done
          | Cancel i -> nth i cancel
          | Cancel_all -> Array.iter cancel !handles
          | Retime (i, d) ->
              nth i (fun t -> if live t then t.handle <- Engine.retime t.handle ~time:(at d))
          | Run_one -> ignore (Engine.run_one eng)
          | Run_until d -> ignore (Engine.run ~until:(at d) eng));
          let expected = !added - !ran - !cancelled in
          Engine.pending eng = expected && Engine.queue_size eng >= expected)
        ops)

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
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [ prop_heap_sorts; prop_heap_model; prop_determinism; prop_sleep_ordering ]
    @ [ QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 50 |]) prop_engine_pending ]
  in
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
        ] );
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "empty" `Quick test_heap_empty;
          Alcotest.test_case "duplicates" `Quick test_heap_duplicates;
          Alcotest.test_case "min comparisons" `Quick test_heap_min_comparisons;
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
          Alcotest.test_case "stop before" `Quick test_engine_stop_before;
          Alcotest.test_case "run one" `Quick test_engine_run_one;
          Alcotest.test_case "retime keeps slot" `Quick test_engine_retime_keeps_slot;
          Alcotest.test_case "snapshot restore" `Quick test_engine_snapshot_restore;
          Alcotest.test_case "post and schedule order" `Quick test_engine_post_schedule_order;
          Alcotest.test_case "pending counts posted" `Quick test_engine_pending_posted;
          Alcotest.test_case "snapshot mixed queue" `Quick test_engine_snapshot_mixed;
          Alcotest.test_case "post after deadline" `Quick test_engine_post_after_deadline;
          Alcotest.test_case "post allocation" `Quick test_engine_post_allocation;
          Alcotest.test_case "mailbox hand-off allocation" `Quick
            test_mailbox_handoff_allocation;
          Alcotest.test_case "sleep allocation" `Quick test_proc_sleep_allocation;
          Alcotest.test_case "MPI receive allocation" `Quick test_mpi_recv_allocation;
          Alcotest.test_case "nan rejected" `Quick test_engine_nan_rejected;
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
          Alcotest.test_case "sleep nan rejected" `Quick test_proc_sleep_nan_rejected;
          Alcotest.test_case "stale waker" `Quick test_proc_stale_waker;
          Alcotest.test_case "kill after wake-up" `Quick test_proc_kill_after_wakeup;
          Alcotest.test_case "kill frozen parked" `Quick test_proc_kill_frozen_parked;
          Alcotest.test_case "sleep when doomed" `Quick test_proc_sleep_doomed;
          Alcotest.test_case "slot waiter killed" `Quick test_slot_killed_waiter;
          Alcotest.test_case "slot waiter frozen" `Quick test_slot_frozen_waiter;
          Alcotest.test_case "doomed receive posts" `Quick test_app_ctx_doomed_recv_posts;
        ] );
      ( "mailbox",
        [
          Alcotest.test_case "fifo" `Quick test_mailbox_fifo;
          Alcotest.test_case "blocking" `Quick test_mailbox_blocking;
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
