(* Tests for the ULFM-style shrink-and-continue backend (lib/mpiulfm):

   - shrinkc: the pure shrink calculus — quorum sizes, deterministic
     communicator rebuild (same survivor set => identical decision, in
     any input order), spare promotion / orphan adoption bookkeeping,
     and the recursive-doubling sync plan (symmetric pairings for every
     membership size);
   - golden: the fault-free path completes plain (never degraded) with
     the same checksums as every other backend;
   - spares: a kill with a warm-spare pool completes degraded with the
     spare promoted and the end-to-end checksum preserved;
   - agreement: a fixed-seed sweep under kills, a partition and message
     loss never produces two different decisions for one epoch (the
     dispatcher's split-brain cross-check stays silent) and never a
     wrong answer, and a member stopped past the suspicion timeout is
     fenced when it continues;
   - determinism: a faulty run is a pure function of its seed, byte
     identical whether replicated on 1 or 4 domains. *)

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Shrinkc: pure shrink calculus *)

let test_quorum () =
  check_int "1 member" 1 (Mpiulfm.Shrinkc.quorum [ 0 ]);
  check_int "2 members" 2 (Mpiulfm.Shrinkc.quorum [ 0; 1 ]);
  check_int "9 members" 5 (Mpiulfm.Shrinkc.quorum (List.init 9 Fun.id));
  check_int "11 members" 6 (Mpiulfm.Shrinkc.quorum (List.init 11 Fun.id))

let decision_eq = Alcotest.testable
    (fun ppf (d : Mpiulfm.Shrinkc.decision) ->
      Format.fprintf ppf "epoch %d members [%s] assign [%s] restart %d"
        d.Mpiulfm.Shrinkc.d_epoch
        (String.concat "," (List.map string_of_int d.Mpiulfm.Shrinkc.d_members))
        (String.concat ","
           (List.map
              (fun (r, d) -> Printf.sprintf "%d->%d" r d)
              d.Mpiulfm.Shrinkc.d_assign))
        d.Mpiulfm.Shrinkc.d_restart)
    ( = )

(* Same survivor set => byte-identical communicator, regardless of the
   order the survivors were enumerated in. *)
let test_next_deterministic () =
  let prev_assign = List.init 9 (fun r -> (r, r)) in
  let avail = List.map (fun d -> (d, [])) (List.init 11 Fun.id) in
  let members = [ 0; 2; 3; 4; 6; 8; 9; 10 ] in
  let d1 =
    Mpiulfm.Shrinkc.next ~n_ranks:9 ~prev_assign ~members ~avail ~epoch:1
  in
  let d2 =
    Mpiulfm.Shrinkc.next ~n_ranks:9 ~prev_assign ~members ~avail ~epoch:1
  in
  check decision_eq "identical on identical input" d1 d2;
  let shuffled = [ 10; 4; 0; 8; 3; 9; 2; 6 ] in
  let d3 =
    Mpiulfm.Shrinkc.next ~n_ranks:9 ~prev_assign ~members:shuffled ~avail ~epoch:1
  in
  check decision_eq "member order is irrelevant" d1 d3

let test_next_promotion_adoption () =
  (* 6 ranks, daemons 0..5 computing, 6..7 warm spares; ranks 1 and 4
     lost. Spares 6 and 7 take the orphans in rank order; nobody is
     doubled up. *)
  let prev_assign = List.init 6 (fun r -> (r, r)) in
  let members = [ 0; 2; 3; 5; 6; 7 ] in
  let avail = List.map (fun d -> (d, [])) members in
  let d = Mpiulfm.Shrinkc.next ~n_ranks:6 ~prev_assign ~members ~avail ~epoch:1 in
  check_int "promoted" 2 d.Mpiulfm.Shrinkc.d_promoted;
  check_int "adopted" 0 d.Mpiulfm.Shrinkc.d_adopted;
  check_int "survivors" 6 (Mpiulfm.Shrinkc.survivors d);
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "assignment" [ (0, 0); (1, 6); (2, 2); (3, 3); (4, 7); (5, 5) ]
    d.Mpiulfm.Shrinkc.d_assign;
  (* No spares left: the same losses are adopted round-robin instead. *)
  let members = [ 0; 2; 3; 5 ] in
  let avail = List.map (fun dm -> (dm, [])) members in
  let d = Mpiulfm.Shrinkc.next ~n_ranks:6 ~prev_assign ~members ~avail ~epoch:2 in
  check_int "promoted" 0 d.Mpiulfm.Shrinkc.d_promoted;
  check_int "adopted" 2 d.Mpiulfm.Shrinkc.d_adopted;
  check_int "survivors" 4 (Mpiulfm.Shrinkc.survivors d);
  check_int "all ranks assigned" 6 (List.length d.Mpiulfm.Shrinkc.d_assign)

let test_next_restart_point () =
  (* Restart = the highest iteration available (locally or via a donor)
     for every rank; donors are listed only for assignees missing it. *)
  let prev_assign = [ (0, 0); (1, 1); (2, 2) ] in
  let members = [ 0; 2; 3 ] in
  let avail =
    [
      (0, [ (0, [ 10; 5 ]); (1, [ 10 ]) ]);
      (2, [ (2, [ 10; 5 ]) ]);
      (3, [ (1, [ 5 ]) ]);
    ]
  in
  let d = Mpiulfm.Shrinkc.next ~n_ranks:3 ~prev_assign ~members ~avail ~epoch:1 in
  (* iteration 10 is missing for rank 1 everywhere? no: daemon 0 holds
     rank 1 at 10, and rank 1's orphan is promoted onto spare 3 — donor
     needed. Ranks 0 and 2 restart from their own local snapshots. *)
  check_int "restart" 10 d.Mpiulfm.Shrinkc.d_restart;
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "donors" [ (1, 0) ] d.Mpiulfm.Shrinkc.d_donors

let test_sync_plan_shapes () =
  check_bool "solo" true (Mpiulfm.Shrinkc.sync_plan ~members:[ 4 ] ~me:4 = Mpiulfm.Shrinkc.Solo);
  (* Every membership size 2..9: each member gets a plan; Edge partners
     point at a Core that points back; Core round pairings are
     symmetric (my partner at round j names me at round j). *)
  for k = 2 to 9 do
    let members = List.init k (fun i -> (3 * i) + 1) in
    let plan_of m = Mpiulfm.Shrinkc.sync_plan ~members ~me:m in
    List.iter
      (fun m ->
        match plan_of m with
        | Mpiulfm.Shrinkc.Solo -> Alcotest.failf "k=%d: member %d got Solo" k m
        | Mpiulfm.Shrinkc.Edge { partner } -> (
            match plan_of partner with
            | Mpiulfm.Shrinkc.Core { edge = Some e; _ } ->
                check_int (Printf.sprintf "k=%d edge symmetry" k) m e
            | _ -> Alcotest.failf "k=%d: edge %d's partner %d is not its core" k m partner)
        | Mpiulfm.Shrinkc.Core { edge; rounds } ->
            (match edge with
            | Some e -> (
                match plan_of e with
                | Mpiulfm.Shrinkc.Edge { partner } ->
                    check_int (Printf.sprintf "k=%d core edge symmetry" k) m partner
                | _ -> Alcotest.failf "k=%d: core %d's edge %d is not an edge" k m e)
            | None -> ());
            Array.iteri
              (fun j p ->
                match plan_of p with
                | Mpiulfm.Shrinkc.Core { rounds = pr; _ } ->
                    check_int (Printf.sprintf "k=%d round %d symmetry" k j) m pr.(j)
                | _ -> Alcotest.failf "k=%d: round partner %d is not core" k p)
              rounds)
      members
  done

(* ------------------------------------------------------------------ *)
(* End-to-end runs (stencil workload, 4 ranks) *)

let small_params =
  { Workload.Stencil.iterations = 60; compute_time = 0.5; msg_bytes = 5_000; jitter = 0.0 }

let n_ranks = 4

let reference = Workload.Stencil.reference_checksum small_params ~n_ranks

let spec ?(spares = 0) ?net ~scenario () =
  let cfg =
    {
      (Mpivcl.Config.default ~n_ranks) with
      Mpivcl.Config.protocol = Mpivcl.Config.Ulfm { spares };
      wave_interval = 10.0;
      term_straggler_prob = 0.0;
      net;
    }
  in
  let app = Workload.Stencil.app small_params ~n_ranks in
  {
    (Failmpi.Run.default_spec ~app ~cfg ~n_compute:8 ~state_bytes:1_000_000) with
    Failmpi.Run.scenario;
    timeout = 400.0;
  }

let execute ?spares ?net ~scenario seed =
  Failmpi.Run.execute ~expected_checksum:reference
    { (spec ?spares ?net ~scenario ()) with Failmpi.Run.seed }

(* One kill at t=20: enough to shrink, deterministic in shape. *)
let one_kill =
  Fail_lang.Codegen.Scenario.source ~n_machines:8
    [
      {
        Fail_lang.Codegen.Scenario.machine = 1;
        anchor = Fail_lang.Codegen.Scenario.After 20;
        kind = Fail_lang.Codegen.Scenario.Kill;
      };
    ]

(* Two staggered kills, then a partition during the agreement they
   triggered, under 2% message loss — the adversarial sweep scenario. *)
let storm =
  Fail_lang.Paper_scenarios.shrink_storm ~n_machines:8 ~targets:[ 1; 3 ] ~start:20
    ~step:3 ~victim:2 ~lag:2

let lossy =
  {
    Simnet.Net.Perturb.default_profile with
    Simnet.Net.Perturb.base =
      { Simnet.Net.Perturb.loss = 0.02; latency = 0.0; jitter = 0.0 };
  }

let test_fault_free_golden () =
  let r = execute ~scenario:None 1L in
  (match r.Failmpi.Run.outcome with
  | Failmpi.Run.Completed _ -> ()
  | o -> Alcotest.failf "expected plain completion, got %s" (Failmpi.Run.outcome_name o));
  check_bool "checksums match every backend's fault-free reference" true
    (r.Failmpi.Run.checksum_ok = Some true);
  check_int "never shrank" 0 (Failmpi.Run.recoveries r)

let test_spare_promotion_preserves_checksum () =
  let r = execute ~spares:2 ~scenario:(Some one_kill) 1L in
  (match r.Failmpi.Run.outcome with
  | Failmpi.Run.Degraded { survivors; _ } ->
      (* 3 surviving computers plus the promoted spare: full width. *)
      check_int "survivors" 4 survivors
  | o -> Alcotest.failf "expected degraded, got %s" (Failmpi.Run.outcome_name o));
  check_bool "spare promoted" true
    (Failmpi.Backend.Metrics.find r.Failmpi.Run.metrics "spares_promoted" = Some 1);
  check_bool "checksum preserved end to end" true (r.Failmpi.Run.checksum_ok = Some true)

(* Fixed-seed sweep under kills + partition + loss: the agreement must
   never decide one epoch two different ways (the dispatcher's
   split-brain cross-check would classify the run buggy / net-hung and
   the checksums would diverge) and a finished run is never wrong. *)
let test_agreement_never_splits () =
  List.iter
    (fun seed ->
      let r = execute ~spares:2 ~net:lossy ~scenario:(Some storm) seed in
      (match r.Failmpi.Run.outcome with
      | Failmpi.Run.Completed _ | Failmpi.Run.Degraded _ ->
          check_bool
            (Printf.sprintf "seed %Ld: finished run has the right answer" seed)
            true
            (r.Failmpi.Run.checksum_ok = Some true)
      | Failmpi.Run.Aborted _ -> ()
      | Failmpi.Run.Ckpt_lost | Failmpi.Run.Non_terminating | Failmpi.Run.Buggy
      | Failmpi.Run.Net_hung ->
          Alcotest.failf "seed %Ld: agreement wedged (%s)" seed
            (Failmpi.Run.outcome_name r.Failmpi.Run.outcome));
      check_bool
        (Printf.sprintf "seed %Ld: no split-brain trace" seed)
        false
        (List.exists
           (fun (_, event) -> event = "split-brain")
           (Failmpi.Run.trace_events r)))
    [ 1L; 2L; 3L; 4L; 5L; 6L ]

(* freeze_thaw.fail's NODE daemon with a 30 s thaw, and one freeze of
   machine 1 at 20 s: longer than the suspicion timeout, so the others
   shrink without it while it is stopped. *)
let freeze_past_timeout =
  {|
Daemon FREEZER {
  node 1:
    time t = 20;
    timer -> !freeze(G1[1]), goto 2;
  node 2:
}

Daemon NODE {
  node idle:
    onload -> continue, goto live;
    ?freeze -> goto idle;
  node live:
    onexit -> goto idle;
    onerror -> goto idle;
    onload -> continue, goto live;
    ?freeze -> stop, goto frozen;
  node frozen:
    time thaw = 30;
    timer -> continue, goto live;
    onexit -> goto idle;
    onerror -> goto idle;
}

P1 : FREEZER on machine 4;
G1[4] : NODE on machines 0 .. 3;
|}

(* A member that comes back after the survivors shrank without it is no
   longer a member: its queued traffic reaches the survivors through the
   non-member path, which answers it Stale, and it fences itself off on
   the decision. The run finishes degraded on the other three with every
   checksum correct. *)
let test_thawed_member_is_fenced () =
  let n_ranks = 4 in
  let r =
    Experiments.Harness.run_bt
      ~cfg:
        {
          (Mpivcl.Config.default ~n_ranks) with
          Mpivcl.Config.protocol = Mpivcl.Config.Ulfm { spares = 0 };
        }
      ~klass:Workload.Bt_model.A ~n_ranks
      ~n_machines:(Experiments.Harness.machines_for n_ranks)
      ~scenario:(Some freeze_past_timeout) ~seed:1L ()
  in
  (match r.Failmpi.Run.outcome with
  | Failmpi.Run.Degraded { survivors; _ } -> check_int "survivors" 3 survivors
  | o -> Alcotest.failf "expected degraded, got %s" (Failmpi.Run.outcome_name o));
  check_bool "every checksum correct" true (r.Failmpi.Run.checksum_ok = Some true);
  let entries event = Observe.find_all r.Failmpi.Run.trace ~event in
  check (Alcotest.list Alcotest.string) "epoch 1 installed by the other three"
    [ "udaemon-0"; "udaemon-2"; "udaemon-3" ]
    (List.sort compare
       (List.filter_map
          (fun (e : Simkern.Trace.entry) ->
            if String.starts_with ~prefix:"epoch 1: 3 members" e.Simkern.Trace.detail then
              Some e.Simkern.Trace.source
            else None)
          (entries "epoch-install")));
  match entries "fenced" with
  | [ e ] ->
      check Alcotest.string "fenced daemon" "udaemon-1" e.Simkern.Trace.source;
      check_bool "fenced once thawed" true (e.Simkern.Trace.time >= 50.0)
  | es -> Alcotest.failf "expected one fenced daemon, got %d" (List.length es)

(* A faulty shrink run is a pure function of its seed: replicating the
   same seeds over 1 and 4 domains yields byte-identical outcomes,
   shrink counters and checksums. *)
let test_jobs_deterministic () =
  let fingerprint r =
    Format.asprintf "%s|%d|%a|%b"
      (Failmpi.Run.outcome_name r.Failmpi.Run.outcome)
      r.Failmpi.Run.injected_faults
      (Format.pp_print_list (fun ppf (n, v) -> Format.fprintf ppf "%s=%d;" n v))
      (Failmpi.Backend.Metrics.counters r.Failmpi.Run.metrics)
      (r.Failmpi.Run.checksum_ok = Some true)
    ^ String.concat ","
        (List.map
           (fun (rk, v) -> Printf.sprintf "%d:%d" rk v)
           r.Failmpi.Run.checksums)
    ^
    match r.Failmpi.Run.outcome with
    | Failmpi.Run.Completed t | Failmpi.Run.Degraded { at = t; _ } ->
        Printf.sprintf "@%.9f" t
    | _ -> ""
  in
  let replicate jobs =
    Experiments.Harness.replicate ~jobs ~reps:3 ~base_seed:1 (fun ~seed ->
        execute ~spares:1 ~scenario:(Some one_kill) seed)
    |> List.map fingerprint
  in
  check (Alcotest.list Alcotest.string) "jobs 1 = jobs 4" (replicate 1) (replicate 4)

let () =
  Alcotest.run "mpiulfm"
    [
      ( "shrinkc",
        [
          Alcotest.test_case "quorum" `Quick test_quorum;
          Alcotest.test_case "shrink is deterministic" `Quick test_next_deterministic;
          Alcotest.test_case "promotion and adoption" `Quick test_next_promotion_adoption;
          Alcotest.test_case "restart point and donors" `Quick test_next_restart_point;
          Alcotest.test_case "sync plan symmetry" `Quick test_sync_plan_shapes;
        ] );
      ( "runs",
        [
          Alcotest.test_case "fault-free golden" `Quick test_fault_free_golden;
          Alcotest.test_case "spare promotion keeps checksum" `Quick
            test_spare_promotion_preserves_checksum;
          Alcotest.test_case "agreement never splits" `Quick test_agreement_never_splits;
          Alcotest.test_case "jobs 1 = jobs 4" `Quick test_jobs_deterministic;
          Alcotest.test_case "thawed member is fenced" `Quick test_thawed_member_is_fenced;
        ] );
    ]
