(* Tests for Mpivcl.Recovery, the vcl dispatcher's recovery bookkeeping
   as a pure state machine, driven with no engine:

   - step: one input sequence per case (a clean start, a steady-state
     failure, a stale incarnation, a spawn death);
   - checker: every run of 2 and of 3 ranks over a model of the daemons
     (Mc's breadth-first search, to exhaustion). Each launched
     incarnation may say hello, then ready, then rank-done once started
     (ranks first say it in rank order), and closes when it obeys
     Terminate; one of them may report its checkpoint lost instead of
     ready.
     Up to two incarnations are killed: before their hello, just after
     it (hello and closure still in flight), or later. What a daemon
     sends on its connection reaches the machine as it is sent, since a
     later read is the same run as a later send; its exit travels apart
     and reaches the machine at any later point. Until the run
     finishes, every transition is checked for:
     - liveness of the bookkeeping: every rank has a live incarnation or
       one whose closure or exit the machine has still to read (so a
       launch is pending);
     - at most one live registered incarnation per rank;
     - Start goes only to incarnations whose Ready the machine read, and
       with [restarts_all] to every rank at once.
   The historical dispatcher and the seeded race must fail the first
   property with a shortest run; the corrected one passes. A last case
   replays the historical counterexample's shape as a FAIL plan on the
   whole simulator. *)

module R = Mpivcl.Recovery
module M = Mpivcl.Message

let check = Alcotest.check
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* step: one input sequence each *)

let create ?(restarts_all = true) ?(buggy = false) ?(seeded_race = false) n =
  R.create ~n ~initial_hosts:(Array.init n Fun.id) ~spare_limit:(n + 1) ~restarts_all ~buggy
    ~seeded_race

let run t inputs = List.fold_left (fun (t, _) i -> R.step t i) (t, []) inputs

let events actions =
  List.filter_map (function R.Trace { event; _ } -> Some event | _ -> None) actions

let sends actions =
  List.filter_map
    (function
      | R.Send (r, M.Start { resume; _ }) ->
          Some (Printf.sprintf "start%s %d" (if resume then "*" else "") r)
      | R.Send (r, M.Terminate) -> Some (Printf.sprintf "terminate %d" r)
      | R.Send (r, _) -> Some (Printf.sprintf "other %d" r)
      | _ -> None)
    actions

let launches actions =
  List.filter_map
    (function R.Launch { rank; host; inc } -> Some (rank, host, inc) | _ -> None)
    actions

let strings = Alcotest.(list string)
let triples = Alcotest.(list (triple int int int))

(* both ranks registered and ready, started *)
let started () =
  let t, acts = R.step (create 2) R.Boot in
  check triples "boot launches every rank" [ (0, 0, 0); (1, 1, 0) ] (launches acts);
  let t, acts = run t [ R.Hello (0, 0); R.Hello (1, 0); R.Ready (0, 0) ] in
  check_int "nothing before the last ready" 0 (List.length acts);
  let t, acts = R.step t (R.Ready (1, 0)) in
  (t, acts)

let test_clean_start () =
  let _, acts = started () in
  check strings "start broadcast" [ "start 0"; "start 1" ] (sends acts);
  check strings "app-started" [ "app-started" ] (events acts)

let test_steady_failure () =
  let t, _ = started () in
  let t, acts = R.step t (R.Closed (0, 0)) in
  check strings "traces" [ "failure-detected"; "recovery-start"; "reallocate" ] (events acts);
  check strings "the survivor is stopped" [ "terminate 1" ] (sends acts);
  check triples "the failed rank moves to the spare" [ (0, 2, 1) ] (launches acts);
  check_int "one recovery" 1 (R.recoveries t);
  let _, acts = R.step t (R.Closed (1, 0)) in
  check triples "the stopped rank restarts in place" [ (1, 1, 1) ] (launches acts)

let test_stale_ignored () =
  let t, _ = started () in
  let t, _ = R.step t (R.Closed (0, 0)) in
  let t, acts = run t [ R.Closed (0, 0); R.Ready (0, 0); R.Spawn_died (0, 0) ] in
  check_int "a stale closure, ready or exit acts on nothing" 0 (List.length acts);
  let _, acts = R.step t (R.Hello (0, 0)) in
  check_bool "a stale hello is refused" true (acts = [ R.Refuse ])

let test_spawn_death_retries () =
  let t, _ = started () in
  let t, _ = R.step t (R.Closed (0, 0)) in
  let t, acts = R.step t (R.Spawn_died (0, 1)) in
  check strings "traces" [ "spawn-failed"; "reallocate" ] (events acts);
  check triples "relaunched on the next spare" [ (0, 0, 2) ] (launches acts);
  check_bool "not confused" false (R.confused t)

(* ------------------------------------------------------------------ *)
(* The model checker *)

type phase = Spawned | Said_hello | Said_ready | Said_done

(* One launched incarnation. [queue] holds what it sent on its
   connection and the machine has not read, oldest first; [exiting]
   that its exit is still to be read. *)
type proc = {
  rank : int;
  inc : int;
  phase : phase;
  alive : bool;
  queue : R.input list;
  exiting : bool;
  accepted : bool; (* its hello was accepted *)
  ready_read : bool; (* the machine read its Ready *)
  terminated : bool; (* told to terminate and not yet closed *)
  started : bool;
}

(* [procs] is sorted by (rank, inc) and drops an incarnation once it is
   dead and the machine read everything it sent; [conns.(r)] is the
   incarnation whose connection the adapter keeps for rank [r]. *)
type sys = {
  recovery : R.t;
  procs : proc list;
  conns : int array;
  kills : int;
  lost : bool; (* a checkpoint loss was reported: at most one per run *)
  done_upto : int; (* ranks below it said rank-done *)
  finished : bool;
}

type tr =
  | Hello of int * int
  | Ready of int * int
  | Lose of int * int
  | Finish of int * int
  | Obey of int * int
  | Kill of int * int
  | Kill_in_flight of int * int (* killed right after its hello *)
  | Read of int * int (* the head of its connection *)
  | Exit of int * int

let max_kills = 2
let find sys r i = List.find_opt (fun p -> p.rank = r && p.inc = i) sys.procs

let update sys r i f =
  let procs =
    List.filter_map
      (fun p ->
        if p.rank = r && p.inc = i then
          match f p with
          | p when p.alive -> Some p
          | p when p.queue <> [] || p.exiting ->
              (* what a dead incarnation did no longer matters *)
              Some { p with phase = Spawned; accepted = false; started = false }
          | _ -> None
        else Some p)
      sys.procs
  in
  { sys with procs }

let die p = { p with alive = false; terminated = false; exiting = true }

let fresh rank inc =
  { rank; inc; phase = Spawned; alive = true; queue = []; exiting = false; accepted = false;
    ready_read = false; terminated = false; started = false }

let input_name = function
  | R.Boot -> "Boot"
  | R.Hello (r, i) -> Printf.sprintf "Hello %d.%d" r i
  | R.Ready (r, i) -> Printf.sprintf "Ready %d.%d" r i
  | R.Rank_done (r, i) -> Printf.sprintf "Rank_done %d.%d" r i
  | R.Ckpt_lost (r, i) -> Printf.sprintf "Ckpt_lost %d.%d" r i
  | R.Unexpected (r, i, _) -> Printf.sprintf "Unexpected %d.%d" r i
  | R.Closed (r, i) -> Printf.sprintf "Closed %d.%d" r i
  | R.Spawn_died (r, i) -> Printf.sprintf "Spawn_died %d.%d" r i

(* Feed [input] to the machine and perform its actions as Dispatcher
   does. [hello] is the incarnation whose hello this is. *)
let feed ~restarts_all n sys ?hello input =
  let recovery, actions = R.step sys.recovery input in
  let sys = ref { sys with recovery } in
  let started = ref [] in
  List.iter
    (function
      | R.Send (r, msg) -> (
          let i = !sys.conns.(r) in
          match msg with
          | M.Terminate -> sys := update !sys r i (fun p -> { p with terminated = p.alive })
          | M.Start _ ->
              (match find !sys r i with
              | Some p when p.ready_read -> ()
              | _ ->
                  raise
                    (Mc.Violation
                       (Printf.sprintf "Start sent to rank %d, whose Ready was not read" r)));
              started := r :: !started;
              sys := update !sys r i (fun p -> { p with started = true })
          | _ -> ())
      | R.Accept (r, i) ->
          !sys.conns.(r) <- i;
          sys := update !sys r i (fun p -> { p with accepted = true })
      | R.Refuse ->
          (* the daemon exits once its dispatcher connection is closed *)
          Option.iter
            (fun (r, i) ->
              sys := update !sys r i (fun p -> if p.alive then die { p with queue = [] } else p))
            hello
      | R.Launch { rank; inc; _ } ->
          !sys.conns.(rank) <- -1;
          sys := { !sys with procs = List.sort compare (fresh rank inc :: !sys.procs) }
      | R.Trace _ -> ()
      | R.Completed | R.Aborted _ -> sys := { !sys with finished = true })
    actions;
  if restarts_all && !started <> [] && List.length !started <> n then
    raise (Mc.Violation "Start sent to some ranks of the wave only");
  !sys

(* [feed] mutates [conns]: every transition starts from a copy *)
let apply ~restarts_all n sys t =
  let sys = { sys with conns = Array.copy sys.conns } in
  let read ?(sys = sys) r i input = feed ~restarts_all n sys ~hello:(r, i) input in
  let set r i f = update sys r i f in
  let sys =
    match t with
    | Hello (r, i) ->
        read ~sys:(set r i (fun p -> { p with phase = Said_hello })) r i (R.Hello (r, i))
    | Ready (r, i) ->
        let sys = set r i (fun p -> { p with phase = Said_ready; ready_read = true }) in
        read ~sys r i (R.Ready (r, i))
    | Finish (r, i) ->
        let sys = { sys with done_upto = max sys.done_upto (r + 1) } in
        read ~sys:(update sys r i (fun p -> { p with phase = Said_done })) r i (R.Rank_done (r, i))
    | Lose (r, i) -> read ~sys:{ sys with lost = true } r i (R.Ckpt_lost (r, i))
    | Obey (r, i) -> read ~sys:(set r i die) r i (R.Closed (r, i))
    | Kill (r, i) ->
        let hello = (Option.get (find sys r i)).phase <> Spawned in
        let sys = update { sys with kills = sys.kills + 1 } r i die in
        if hello then read ~sys r i (R.Closed (r, i)) else sys
    | Kill_in_flight (r, i) ->
        update { sys with kills = sys.kills + 1 } r i (fun p ->
            { (die p) with queue = [ R.Hello (r, i); R.Closed (r, i) ] })
    | Read (r, i) ->
        let input = List.hd (Option.get (find sys r i)).queue in
        read ~sys:(set r i (fun p -> { p with queue = List.tl p.queue })) r i input
    | Exit (r, i) ->
        read ~sys:(set r i (fun p -> { p with exiting = false })) r i (R.Spawn_died (r, i))
  in
  if not sys.finished then
    for r = 0 to n - 1 do
      let mine = List.filter (fun p -> p.rank = r) sys.procs in
      if mine = [] then
        raise
          (Mc.Violation
             (Printf.sprintf "rank %d is lost: no live incarnation and no launch pending" r));
      if List.length (List.filter (fun p -> p.alive && p.accepted) mine) > 1 then
        raise (Mc.Violation (Printf.sprintf "rank %d has two live registered incarnations" r))
    done;
  sys

let enabled sys =
  if sys.finished then []
  else
    List.concat_map
      (fun p ->
        let r, i = (p.rank, p.inc) in
        List.concat
          [
            (if p.queue <> [] then [ Read (r, i) ] else []);
            (if p.exiting then [ Exit (r, i) ] else []);
            (if not p.alive then []
             else
               List.concat
                 [
                   (match p.phase with
                   | Spawned -> [ Hello (r, i) ]
                   | Said_hello when not sys.lost -> [ Ready (r, i); Lose (r, i) ]
                   | Said_hello -> [ Ready (r, i) ]
                   | Said_ready when p.started && r <= sys.done_upto -> [ Finish (r, i) ]
                   | Said_ready | Said_done -> []);
                   (if p.terminated then [ Obey (r, i) ] else []);
                   (if sys.kills >= max_kills then []
                    else if p.phase = Spawned then [ Kill (r, i); Kill_in_flight (r, i) ]
                    else [ Kill (r, i) ]);
                 ]);
          ])
      sys.procs

(* A transition, and the input it makes the machine read with the
   milestones the machine traces on it. *)
let label t sys =
  let proc r i = Option.get (find sys r i) in
  let what, input =
    match t with
    | Hello (r, i) -> (Printf.sprintf "%d.%d says hello" r i, Some (R.Hello (r, i)))
    | Ready (r, i) -> (Printf.sprintf "%d.%d says ready" r i, Some (R.Ready (r, i)))
    | Finish (r, i) -> (Printf.sprintf "%d.%d says rank-done" r i, Some (R.Rank_done (r, i)))
    | Lose (r, i) ->
        (Printf.sprintf "%d.%d reports its checkpoint lost" r i, Some (R.Ckpt_lost (r, i)))
    | Obey (r, i) -> (Printf.sprintf "%d.%d obeys Terminate" r i, Some (R.Closed (r, i)))
    | Kill (r, i) ->
        ( Printf.sprintf "%d.%d is killed" r i,
          if (proc r i).phase = Spawned then None else Some (R.Closed (r, i)) )
    | Kill_in_flight (r, i) -> (Printf.sprintf "%d.%d says hello and is killed" r i, None)
    | Read (r, i) -> ("the dispatcher reads", Some (List.hd (proc r i).queue))
    | Exit (r, i) -> ("the dispatcher reads", Some (R.Spawn_died (r, i)))
  in
  match input with
  | None -> what
  | Some input ->
      let said =
        List.filter_map
          (function R.Trace { level = Simkern.Trace.Summary; event; _ } -> Some event | _ -> None)
          (snd (R.step sys.recovery input))
      in
      Printf.sprintf "%s: %s%s" what (input_name input)
        (if said = [] then "" else Printf.sprintf " (%s)" (String.concat ", " said))

let initial ~restarts_all ~buggy ~seeded_race n =
  let sys =
    { recovery = create ~restarts_all ~buggy ~seeded_race n; procs = []; conns = Array.make n (-1);
      kills = 0; lost = false; done_upto = 0; finished = false }
  in
  feed ~restarts_all n sys R.Boot

let key sys = Digest.string (Marshal.to_string sys [ Marshal.No_sharing ])

let explore ~n ~restarts_all ~buggy ~seeded_race =
  let module C = Mc.Make (struct
    type state = sys
    type transition = tr

    let enabled = enabled
    let apply = apply ~restarts_all n
    let label = label
    let key = key
  end) in
  C.explore (initial ~restarts_all ~buggy ~seeded_race n)

let summary = ref []

(* The historical and the seeded variant must fail by name: the
   shortest counterexample ends in the lost rank, and the closure that
   loses it is traced as [milestone]. *)
let checker ~variant ~n ~restarts_all () =
  let buggy = variant = "historical" and seeded_race = variant = "seeded" in
  let r = explore ~n ~restarts_all ~buggy ~seeded_race in
  let line =
    Printf.sprintf "recovery checker: %s, %d ranks, restarts_all %b, at most %d kills: %d states%s"
      variant n restarts_all max_kills r.Mc.states
      (match r.Mc.counterexample with
      | Some steps -> Printf.sprintf ", shortest counterexample %d steps" (List.length steps - 1)
      | None -> "")
  in
  summary := Option.to_list (Mc.steps r) @ (line :: !summary);
  let milestone =
    match variant with
    | "historical" when restarts_all -> Some "(dispatcher-confused)"
    | "seeded" when restarts_all -> Some "(dispatcher-race)"
    | _ -> None
  in
  match (milestone, r.Mc.counterexample) with
  | None, None -> check_bool "states explored" true (r.Mc.states > 1)
  | None, Some _ -> Alcotest.failf "%s\nshortest counterexample:\n%s" line (Option.get (Mc.steps r))
  | Some _, None -> Alcotest.failf "%s: no counterexample" line
  | Some m, Some steps ->
      let last = List.nth steps (List.length steps - 1) in
      check Alcotest.string "the violation"
        "=> rank 0 is lost: no live incarnation and no launch pending" last;
      check_bool ("a closure traced " ^ m) true
        (List.exists (fun s -> String.ends_with ~suffix:m s) steps)

(* ------------------------------------------------------------------ *)
(* The historical counterexample on the whole simulator: kill rank 0,
   then its relaunched daemon on the first spare (machine 9) one second
   after it loads, while old-wave daemons are still stopping. *)

let double_strike ~buggy =
  let src =
    let ic = open_in_bin "../scenarios/double_strike.fail" in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let klass = Workload.Bt_model.B and n_ranks = 9 in
  let cfg = { (Mpivcl.Config.default ~n_ranks) with Mpivcl.Config.dispatcher_buggy = buggy } in
  let spec =
    Experiments.Harness.bt_spec ~cfg ~klass ~n_ranks ~n_machines:13 ~scenario:(Some src) ()
  in
  Failmpi.Run.execute
    ~expected_checksum:(Workload.Bt_model.reference_checksum klass ~n_ranks)
    { spec with
      Failmpi.Run.params = [ ("START", 25); ("GAP", 1); ("FIRST", 0); ("SECOND", 9); ("NTH", 10) ];
      timeout = 1500.0 }

let test_double_strike () =
  let historical = double_strike ~buggy:true in
  check_bool "historical: buggy" true (historical.Failmpi.Run.outcome = Failmpi.Run.Buggy);
  check_int "historical: rank 0 forgotten" 1
    (Simkern.Trace.count historical.Failmpi.Run.trace ~event:"dispatcher-confused");
  let corrected = double_strike ~buggy:false in
  (match corrected.Failmpi.Run.outcome with
  | Failmpi.Run.Completed _ -> ()
  | _ -> Alcotest.fail "corrected: not completed");
  check_bool "corrected: checksums" true (corrected.Failmpi.Run.checksum_ok = Some true);
  check_int "both strikes landed" 2 corrected.Failmpi.Run.injected_faults

let () =
  Alcotest.run ~and_exit:false "recovery"
    [
      ( "step",
        [
          Alcotest.test_case "clean start" `Quick test_clean_start;
          Alcotest.test_case "steady-state failure starts a recovery" `Quick test_steady_failure;
          Alcotest.test_case "stale incarnation ignored" `Quick test_stale_ignored;
          Alcotest.test_case "spawn death retries" `Quick test_spawn_death_retries;
        ] );
      ( "checker",
        List.concat_map
          (fun (n, restarts_all) ->
            List.map
              (fun variant ->
                Alcotest.test_case
                  (Printf.sprintf "%s, %d ranks, restarts_all %b" variant n restarts_all)
                  `Quick (checker ~variant ~n ~restarts_all))
              [ "corrected"; "historical"; "seeded" ])
          [ (2, true); (2, false); (3, true); (3, false) ] );
      ( "replay",
        [ Alcotest.test_case "double strike: buggy, then completed" `Quick test_double_strike ] );
    ];
  print_newline ();
  List.iter print_endline (List.rev !summary)
