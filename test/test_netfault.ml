(* Tests for the network perturbation layer (Net.Perturb) and its
   integration with the run harness:

   - backoff ladder and profile/spec validation;
   - perturb-off equivalence: a run with [Config.net = Some
     default_profile] (all dimensions zero) is bit-identical to one with
     no profile at all — the pristine fast path draws no RNG and reports
     no net counters;
   - fixed-seed determinism under loss, sequentially and across worker
     counts (jobs 1 = jobs 4);
   - partition-then-heal completes when the heal lands before connect
     retries exhaust; an unhealed partition verdicts net-hung, never
     buggy;
   - the FCI control plane executes net actions and [shutdown] drains
     every timer it armed (Engine.pending returns to 0). *)

open Simkern
module Perturb = Simnet.Net.Perturb
module Harness = Experiments.Harness

let check = Alcotest.check
let check_bool = check Alcotest.bool
let check_int = check Alcotest.int
let check_float = check (Alcotest.float 1e-12)

(* ------------------------------------------------------------------ *)
(* Backoff and validation *)

let test_backoff () =
  let b attempt = Perturb.backoff ~rto_initial:0.25 ~rto_max:4.0 ~attempt in
  check_float "attempt 0" 0.25 (b 0);
  check_float "attempt 1" 0.5 (b 1);
  check_float "attempt 2" 1.0 (b 2);
  check_float "attempt 3" 2.0 (b 3);
  check_float "attempt 4" 4.0 (b 4);
  check_float "capped" 4.0 (b 10);
  try
    ignore (b (-1));
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let expect_invalid what f =
  try
    f ();
    Alcotest.failf "%s: expected Invalid_argument" what
  with Invalid_argument _ -> ()

let test_spec_validation () =
  Perturb.check_spec { Perturb.loss = 0.0; latency = 0.0; jitter = 0.0 };
  Perturb.check_spec { Perturb.loss = 1.0; latency = 3.0; jitter = 0.5 };
  expect_invalid "loss > 1" (fun () ->
      Perturb.check_spec { Perturb.loss = 1.5; latency = 0.0; jitter = 0.0 });
  expect_invalid "negative loss" (fun () ->
      Perturb.check_spec { Perturb.loss = -0.1; latency = 0.0; jitter = 0.0 });
  expect_invalid "negative latency" (fun () ->
      Perturb.check_spec { Perturb.loss = 0.0; latency = -1.0; jitter = 0.0 });
  expect_invalid "negative jitter" (fun () ->
      Perturb.check_spec { Perturb.loss = 0.0; latency = 0.0; jitter = -1.0 })

let test_profile_validation () =
  Perturb.check_profile Perturb.default_profile;
  expect_invalid "bad base spec" (fun () ->
      Perturb.check_profile
        {
          Perturb.default_profile with
          Perturb.base = { Perturb.loss = 2.0; latency = 0.0; jitter = 0.0 };
        });
  (* A negative heal is a timer in the past, and a NaN one fires at once. *)
  List.iter
    (fun (heal, got) ->
      match Perturb.check_profile { Perturb.default_profile with Perturb.heal_at = Some heal } with
      | () -> Alcotest.failf "heal_at %s: expected Invalid_argument" got
      | exception Invalid_argument msg ->
          check Alcotest.string ("heal_at " ^ got)
            (Printf.sprintf "Net.Perturb profile: heal_at must be non-negative (got %s)" got)
            msg)
    [ (-5.0, "-5"); (Float.nan, "nan") ];
  Perturb.check_profile { Perturb.default_profile with Perturb.heal_at = Some 0.0 }

(* An empty host set is a caller bug, not a no-op to paper over: the
   complaint is pinned, and the failed call must not mark the layer
   touched (which would drag every later run off the pristine path). *)
let test_empty_host_set_rejected () =
  let eng = Engine.create () in
  let net : unit Simnet.Net.t = Simnet.Net.create eng () in
  let p = Simnet.Net.perturb net in
  let expect_msg what expected f =
    try
      f ();
      Alcotest.failf "%s: expected Invalid_argument" what
    with Invalid_argument msg -> check Alcotest.string what expected msg
  in
  let partition_msg =
    "Net.Perturb.partition: empty host set (both sides need at least one host)"
  in
  expect_msg "partition both empty" partition_msg (fun () -> Perturb.partition p [] []);
  expect_msg "partition left empty" partition_msg (fun () -> Perturb.partition p [] [ 2; 3 ]);
  expect_msg "partition right empty" partition_msg (fun () -> Perturb.partition p [ 0; 1 ] []);
  expect_msg "isolate empty" "Net.Perturb.isolate: empty host set (nothing to isolate)"
    (fun () -> Perturb.isolate p []);
  check_bool "rejected calls leave the layer untouched" false (Perturb.touched p)

(* Pair-level primitives: a cut or degradation lands on exactly the
   listed pairs, in both directions, and heals away. *)
let test_pair_primitives () =
  let eng = Engine.create () in
  let net : unit Simnet.Net.t = Simnet.Net.create eng () in
  let p = Simnet.Net.perturb net in
  Perturb.cut_pairs p [ (1, 0); (2, 3) ];
  check_bool "cut src->dst" true (Perturb.cut p ~src:0 ~dst:1);
  check_bool "cut dst->src" true (Perturb.cut p ~src:1 ~dst:0);
  check_bool "unsorted input normalized" true (Perturb.cut p ~src:3 ~dst:2);
  check_bool "unlisted pair open" false (Perturb.cut p ~src:0 ~dst:2);
  check_bool "touched" true (Perturb.touched p);
  let spec = { Perturb.loss = 0.25; latency = 0.002; jitter = 0.0 } in
  Perturb.degrade_pairs p ~pairs:[ (4, 5) ] spec;
  check_bool "pair spec applies both ways" true
    (Perturb.spec_for p ~src:4 ~dst:5 = spec && Perturb.spec_for p ~src:5 ~dst:4 = spec);
  check_bool "unlisted pair untouched" true (Perturb.spec_for p ~src:4 ~dst:6 = Perturb.zero);
  Perturb.heal p;
  check_bool "heal clears pair cuts" false (Perturb.cut p ~src:0 ~dst:1);
  check_bool "heal clears pair specs" true (Perturb.spec_for p ~src:4 ~dst:5 = Perturb.zero)

(* ------------------------------------------------------------------ *)
(* Run-level equivalence and determinism (small BT workload) *)

let run_bt ?net ~n_ranks ~seed () =
  let cfg = { (Mpivcl.Config.default ~n_ranks) with Mpivcl.Config.net } in
  Harness.run_bt ~cfg ~klass:Workload.Bt_model.A ~n_ranks
    ~n_machines:(Harness.machines_for n_ranks) ~scenario:None ~seed ()

let counters r = Failmpi.Backend.Metrics.counters r.Failmpi.Run.metrics

let same_result a b =
  a.Failmpi.Run.outcome = b.Failmpi.Run.outcome
  && a.Failmpi.Run.injected_faults = b.Failmpi.Run.injected_faults
  && a.Failmpi.Run.checksums = b.Failmpi.Run.checksums
  && a.Failmpi.Run.checksum_ok = b.Failmpi.Run.checksum_ok
  && counters a = counters b

let loss_profile ?(loss = 0.05) () =
  {
    Perturb.default_profile with
    Perturb.base = { Perturb.loss; latency = 0.0; jitter = 0.0 };
  }

let test_perturb_off_identical () =
  (* An applied-but-all-zero profile must leave the pristine path byte
     for byte: same outcome and time, and no net counters at all. *)
  let plain = run_bt ~n_ranks:4 ~seed:1L () in
  let zeroed = run_bt ~net:Perturb.default_profile ~n_ranks:4 ~seed:1L () in
  check_bool "identical results" true (same_result plain zeroed);
  check_bool "completed" true
    (match plain.Failmpi.Run.outcome with Failmpi.Run.Completed _ -> true | _ -> false);
  check_bool "no net counters" true
    (List.for_all
       (fun (name, _) -> not (String.length name >= 4 && String.sub name 0 4 = "net_"))
       (counters plain))

let test_loss_deterministic () =
  let a = run_bt ~net:(loss_profile ()) ~n_ranks:4 ~seed:3L () in
  let b = run_bt ~net:(loss_profile ()) ~n_ranks:4 ~seed:3L () in
  check_bool "same seed, same run" true (same_result a b);
  check_bool "completed under loss" true
    (match a.Failmpi.Run.outcome with Failmpi.Run.Completed _ -> true | _ -> false);
  check_bool "checksums intact" true (a.Failmpi.Run.checksum_ok = Some true);
  check_bool "drops observed" true
    (Failmpi.Backend.Metrics.find a.Failmpi.Run.metrics "net_dropped" > Some 0);
  check_bool "retransmits observed" true
    (Failmpi.Backend.Metrics.find a.Failmpi.Run.metrics "net_retransmits" > Some 0)

let test_topology_attached_identical () =
  (* Declaring a topology arms component faults but must never perturb
     an unperturbed run: routing is only consulted when a fault
     resolves, so the observables stay byte-identical. *)
  let with_topology topology ~seed =
    let cfg = { (Mpivcl.Config.default ~n_ranks:4) with Mpivcl.Config.topology } in
    Harness.run_bt ~cfg ~klass:Workload.Bt_model.A ~n_ranks:4
      ~n_machines:(Harness.machines_for 4) ~scenario:None ~seed ()
  in
  let plain = run_bt ~n_ranks:4 ~seed:1L () in
  let flat = with_topology (Some Simtopo.Topo.Flat) ~seed:1L in
  let tree = with_topology (Some (Simtopo.Topo.Fat_tree { k = 4 })) ~seed:1L in
  check_bool "flat mesh identical" true (same_result plain flat);
  check_bool "fat tree identical" true (same_result plain tree)

let test_jobs_equivalence () =
  (* The seeded perturbation RNG lives in the run's own engine, so a
     parallel campaign is bit-identical to the sequential one. *)
  let cell =
    Harness.cell ~tag:"loss" ~reps:3 ~base_seed:11 (fun ~seed ->
        run_bt ~net:(loss_profile ()) ~n_ranks:4 ~seed ())
  in
  let agg jobs =
    match Harness.campaign ~jobs [ cell ] with
    | [ (_, results) ] -> Harness.aggregate ~label:"loss" results
    | _ -> Alcotest.fail "expected one cell"
  in
  check_bool "jobs 1 = jobs 4" true (agg 1 = agg 4)

(* ------------------------------------------------------------------ *)
(* Partition, heal, and the net-hung verdict (9-rank cluster) *)

let partition_profile ~heal_at =
  {
    Perturb.default_profile with
    Perturb.partition = Some ([ 0; 1 ], [ 2; 3 ]);
    heal_at;
  }

let test_partition_heal_completes () =
  (* Healed before connect retries exhaust (~20 s of backoff): the run
     rides the retransmissions to a correct completion. *)
  let r = run_bt ~net:(partition_profile ~heal_at:(Some 8.0)) ~n_ranks:9 ~seed:1L () in
  check_bool "completed" true
    (match r.Failmpi.Run.outcome with Failmpi.Run.Completed _ -> true | _ -> false);
  check_bool "checksums intact" true (r.Failmpi.Run.checksum_ok = Some true);
  check_bool "drops observed" true
    (Failmpi.Backend.Metrics.find r.Failmpi.Run.metrics "net_dropped" > Some 0)

let test_unhealed_partition_is_net_hung () =
  (* Never healed: the wedge is network-explained, so the §5 classifier
     must say net-hung, not buggy. *)
  let r = run_bt ~net:(partition_profile ~heal_at:None) ~n_ranks:9 ~seed:1L () in
  check_bool "net-hung" true (r.Failmpi.Run.outcome = Failmpi.Run.Net_hung)

(* ------------------------------------------------------------------ *)
(* FCI control plane: net actions and timer drain *)

let deploy eng src =
  match Fail_lang.Compile.compile_source src with
  | Ok plan -> Fci.Runtime.create eng plan
  | Error msg -> Alcotest.failf "compile failed: %s" msg

let test_fci_net_actions_and_drain () =
  let eng = Engine.create () in
  let net : unit Simnet.Net.t = Simnet.Net.create eng () in
  let p = Simnet.Net.perturb net in
  let rt =
    deploy eng
      {|
Daemon PLAN {
  node 1:
    time t = 1;
    timer -> degrade G1[1] loss = 100, goto 2;
  node 2:
    time t = 1;
    timer -> partition G1[0] G1[1], goto 3;
  node 3:
    time t = 2;
    timer -> heal, goto 4;
  node 4:
}
Daemon NODE {
  node 1:
}
P1 : PLAN on machine 9;
G1[2] : NODE on machines 0 .. 1;
|}
  in
  Fci.Runtime.set_fabric rt p;
  (* The heartbeat monitor keeps the engine busy while the fabric is
     perturbed, so run to a deadline rather than quiescence. *)
  check_bool "deadline" true (Engine.run ~until:30.0 eng = `Deadline);
  check_int "degrade and partition counted" 2 (Fci.Runtime.net_faults rt);
  check_bool "fabric touched" true (Perturb.touched p);
  Fci.Runtime.shutdown rt;
  check_bool "drained" true (Engine.run eng = `Quiescent);
  check_int "no pending events" 0 (Engine.pending eng)

let topo_kill_src =
  {|
Daemon PLAN {
  node 1:
    time t = 1;
    timer -> partition switch edge[0], goto 2;
  node 2:
}
Daemon NODE {
  node 1:
}
P1 : PLAN on machine 16;
G1[16] : NODE on machines 0 .. 15;
|}

let test_fci_switch_kill () =
  let eng = Engine.create () in
  let net : unit Simnet.Net.t = Simnet.Net.create eng () in
  let p = Simnet.Net.perturb net in
  let rt = deploy eng topo_kill_src in
  Fci.Runtime.set_fabric rt p;
  Fci.Runtime.set_topology rt
    (Simtopo.Topo.for_cluster (Simtopo.Topo.Fat_tree { k = 4 }) ~n_compute:16);
  check_bool "deadline" true (Engine.run ~until:10.0 eng = `Deadline);
  check_int "component fault counted" 1 (Fci.Runtime.net_faults rt);
  (* edge switch 0 takes rack 0 (hosts 0 and 1) off the fabric: every
     pair touching them is cut, everything else stays open *)
  check_bool "severed to remote" true (Perturb.cut p ~src:0 ~dst:5);
  check_bool "intra-rack cut" true (Perturb.cut p ~src:0 ~dst:1);
  check_bool "severed to service host" true (Perturb.cut p ~src:1 ~dst:16);
  check_bool "survivor pairs open" false (Perturb.cut p ~src:2 ~dst:5);
  Fci.Runtime.shutdown rt;
  check_bool "drained" true (Engine.run eng = `Quiescent)

let test_fci_topo_kill_without_topology_is_noop () =
  (* The same scenario on a run that declared no topology: a traced
     no-op, the fabric stays pristine. *)
  let eng = Engine.create () in
  let net : unit Simnet.Net.t = Simnet.Net.create eng () in
  let p = Simnet.Net.perturb net in
  let rt = deploy eng topo_kill_src in
  Fci.Runtime.set_fabric rt p;
  ignore (Engine.run ~until:10.0 eng);
  check_int "no fault counted" 0 (Fci.Runtime.net_faults rt);
  check_bool "fabric untouched" false (Perturb.touched p);
  Fci.Runtime.shutdown rt;
  check_bool "drained" true (Engine.run eng = `Quiescent)

let test_shutdown_idempotent () =
  let eng = Engine.create () in
  let rt = deploy eng "Daemon D { node 1: } P1 : D on machine 0;" in
  ignore (Engine.run eng);
  Fci.Runtime.shutdown rt;
  Fci.Runtime.shutdown rt;
  check_int "no pending events" 0 (Engine.pending eng)

let () =
  Alcotest.run "netfault"
    [
      ( "perturb",
        [
          Alcotest.test_case "backoff ladder" `Quick test_backoff;
          Alcotest.test_case "spec validation" `Quick test_spec_validation;
          Alcotest.test_case "profile validation" `Quick test_profile_validation;
          Alcotest.test_case "empty host set rejected" `Quick test_empty_host_set_rejected;
          Alcotest.test_case "pair primitives" `Quick test_pair_primitives;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "perturb off is pristine" `Quick test_perturb_off_identical;
          Alcotest.test_case "topology attached is pristine" `Quick
            test_topology_attached_identical;
          Alcotest.test_case "fixed seed under loss" `Quick test_loss_deterministic;
          Alcotest.test_case "jobs 1 = jobs 4" `Quick test_jobs_equivalence;
        ] );
      ( "partition",
        [
          Alcotest.test_case "heal before exhaustion completes" `Quick
            test_partition_heal_completes;
          Alcotest.test_case "unhealed partition is net-hung" `Quick
            test_unhealed_partition_is_net_hung;
        ] );
      ( "fci",
        [
          Alcotest.test_case "net actions and timer drain" `Quick
            test_fci_net_actions_and_drain;
          Alcotest.test_case "switch kill cuts the routed pairs" `Quick test_fci_switch_kill;
          Alcotest.test_case "topo kill without topology is a no-op" `Quick
            test_fci_topo_kill_without_topology_is_noop;
          Alcotest.test_case "shutdown idempotent" `Quick test_shutdown_idempotent;
        ] );
    ]
