(* Tests for lib/explore: plan <-> scenario conversion, the ddmin /
   coarsen shrinker on synthetic oracles, and the end-to-end acceptance
   demo — the seeded vcl dispatcher race must be rediscovered by the
   search, shrunk to a two-fault witness that replays through
   Failmpi.Run with the same classification, and disappear entirely
   when the defect is compiled out. Reports must be byte-identical at
   jobs 1 and jobs 4. *)

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let check_str = check Alcotest.string

module Plan = Explore.Plan
module Shrink = Explore.Shrink

let plan_testable =
  Alcotest.testable
    (fun ppf p -> Format.fprintf ppf "%d machines: %s" p.Plan.n_machines (Plan.key p))
    ( = )

let vname = Explore.verdict_name

(* What the explorer relies on in a plan's scenario text: it compiles
   (every [Run.prepare] compiles it), and it is what the printer makes
   of its own parse, so a saved witness reads as it was written. *)
let compiled ?params what src =
  match Fail_lang.Compile.compile_source ?params src with
  | Ok plan -> plan
  | Error e -> Alcotest.failf "%s does not compile: %s" what e

let check_scenario p =
  let src = Plan.to_scenario p in
  ignore (compiled (Plan.key p) src);
  check_str "scenario text re-prints" src
    (Fail_lang.Pp.program_to_string (Fail_lang.Parser.parse src))

(* A scenario compiles to the same automata and deployments as a plan's
   generated text. *)
let check_same_scenario what ?params src p =
  check_str what
    (Fail_lang.Codegen.dump (compiled "generated source" (Plan.to_scenario p)))
    (Fail_lang.Codegen.dump (compiled what ?params src))

(* ------------------------------------------------------------------ *)
(* Plan -> scenario *)

let sample_plans =
  [
    { Plan.n_machines = 8; faults = [ { Plan.machine = 3; anchor = Plan.After 12; kind = Plan.Kill } ] };
    {
      Plan.n_machines = 8;
      faults = [ { Plan.machine = 0; anchor = Plan.After 5; kind = Plan.Freeze { thaw = 8 } } ];
    };
    {
      Plan.n_machines = 10;
      faults =
        [
          { Plan.machine = 2; anchor = Plan.After 20; kind = Plan.Kill };
          { Plan.machine = 7; anchor = Plan.On_reload { nth = 5; delay = 2 }; kind = Plan.Kill };
        ];
    };
    {
      Plan.n_machines = 13;
      faults =
        [
          { Plan.machine = 1; anchor = Plan.After 25; kind = Plan.Kill };
          { Plan.machine = 4; anchor = Plan.After 3; kind = Plan.Freeze { thaw = 6 } };
          { Plan.machine = 2; anchor = Plan.On_reload { nth = 10; delay = 1 }; kind = Plan.Kill };
        ];
    };
  ]

let test_plan_roundtrip () = List.iter check_scenario sample_plans

let test_plan_key () =
  check_str "key shape" "kill@2+20;kill@7@reload5+2" (Plan.key (List.nth sample_plans 2));
  check_str "freeze key" "freeze8@0+5" (Plan.key (List.nth sample_plans 1))

let read_scenario name =
  let path = Filename.concat "../scenarios" name in
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The shipped double_strike.fail, its registered paper-scenario twin
   and a hand-built plan must all denote the same two-fault strike. *)
let test_double_strike_file () =
  let expected =
    {
      Plan.n_machines = 13;
      faults =
        [
          { Plan.machine = 0; anchor = Plan.After 25; kind = Plan.Kill };
          { Plan.machine = 9; anchor = Plan.On_reload { nth = 10; delay = 1 }; kind = Plan.Kill };
        ];
    }
  in
  check_same_scenario "double_strike.fail"
    ~params:[ ("START", 25); ("GAP", 1); ("FIRST", 0); ("SECOND", 9); ("NTH", 10) ]
    (read_scenario "double_strike.fail") expected;
  let registered =
    match List.assoc_opt "double-strike" Fail_lang.Paper_scenarios.all with
    | Some src -> src
    | None -> Alcotest.fail "double-strike not registered in Paper_scenarios.all"
  in
  check_str "paper scenario" (Plan.to_scenario expected) registered

(* Service faults: key shape, key round-trip and scenario text. The ckpt
   replica index lives in the fault's [machine]. *)
let test_service_plan_roundtrip () =
  let p =
    {
      Plan.n_machines = 13;
      faults =
        [
          {
            Plan.machine = 0;
            anchor = Plan.After 32;
            kind = Plan.Service_kill { service = Plan.S_ckpt 0 };
          };
          {
            Plan.machine = 2;
            anchor = Plan.After 1;
            kind = Plan.Service_freeze { service = Plan.S_ckpt 2; thaw = 20 };
          };
          {
            Plan.machine = 0;
            anchor = Plan.After 5;
            kind = Plan.Service_kill { service = Plan.S_sched };
          };
          { Plan.machine = 3; anchor = Plan.After 6; kind = Plan.Kill };
        ];
    }
  in
  check_str "service keys" "skckpt@0+32;sfckpt20@2+1;sksched@0+5;kill@3+6" (Plan.key p);
  (match Plan.of_key ~n_machines:13 (Plan.key p) with
  | Ok q -> check plan_testable "key round-trip" p q
  | Error e -> Alcotest.failf "of_key failed: %s" e);
  check_scenario p

(* [align_service] restores the codegen invariant when machine and kind
   were drawn independently (the sampler and corpus mutator do this). *)
let test_align_service () =
  let f =
    {
      Plan.machine = 2;
      anchor = Plan.After 10;
      kind = Plan.Service_kill { service = Plan.S_ckpt 0 };
    }
  in
  (match (Plan.align_service f).Plan.kind with
  | Plan.Service_kill { service = Plan.S_ckpt 2 } -> ()
  | _ -> Alcotest.fail "ckpt selector not aligned to the fault's machine");
  let g =
    {
      Plan.machine = 5;
      anchor = Plan.After 10;
      kind = Plan.Service_freeze { service = Plan.S_sched; thaw = 3 };
    }
  in
  check_int "sched machine pinned to 0" 0 (Plan.align_service g).Plan.machine;
  let h = { Plan.machine = 4; anchor = Plan.After 7; kind = Plan.Kill } in
  check plan_testable "identity on process faults"
    { Plan.n_machines = 8; faults = [ h ] }
    { Plan.n_machines = 8; faults = [ Plan.align_service h ] }

(* The shipped ckpt_sniper.fail, its registered paper-scenario twin and
   a hand-built plan must all denote the same mid-commit strike. *)
let test_ckpt_sniper_file () =
  let expected =
    {
      Plan.n_machines = 13;
      faults =
        [
          {
            Plan.machine = 0;
            anchor = Plan.After 32;
            kind = Plan.Service_kill { service = Plan.S_ckpt 0 };
          };
          { Plan.machine = 3; anchor = Plan.After 6; kind = Plan.Kill };
        ];
    }
  in
  check_same_scenario "ckpt_sniper.fail"
    ~params:[ ("SERVER", 0); ("START", 32); ("RANK", 3); ("GAP", 6) ]
    (read_scenario "ckpt_sniper.fail") expected;
  let registered =
    match List.assoc_opt "ckpt-sniper" Fail_lang.Paper_scenarios.all with
    | Some src -> src
    | None -> Alcotest.fail "ckpt-sniper not registered in Paper_scenarios.all"
  in
  check_str "paper scenario" (Plan.to_scenario expected) registered

(* Every fault kind, all three services, all three tiers, both anchors
   and non-zero parameters in one plan.  The four outputs below are the
   fault vocabulary as the outside world sees it (plan keys, corpus
   fingerprints, explorer reports, generated FAIL source); they must not
   move by one byte. *)
let vocabulary_plan =
  let f machine anchor kind = { Plan.machine; anchor; kind } in
  let after d = Plan.After d and reload nth delay = Plan.On_reload { nth; delay } in
  {
    Plan.n_machines = 13;
    faults =
      [
        f 0 (reload 2 0) Plan.Kill;
        f 1 (after 3) (Plan.Freeze { thaw = 8 });
        f 2 (after 6) Plan.Partition;
        f 3 (reload 5 3) (Plan.Degrade { loss = 50; latency = 2 });
        f 0 (after 12) Plan.Heal;
        f 0 (after 15) (Plan.Switch_kill { tier = Fail_lang.Ast.Tier_edge });
        f 1 (reload 8 6) (Plan.Switch_kill { tier = Fail_lang.Ast.Tier_agg });
        f 2 (after 21) (Plan.Switch_kill { tier = Fail_lang.Ast.Tier_core });
        f 3 (after 24) (Plan.Pod_degrade { loss = 300; latency = 5 });
        f 4 (reload 11 9) (Plan.Service_kill { service = Plan.S_ckpt 4 });
        f 0 (after 30) (Plan.Service_kill { service = Plan.S_sched });
        f 0 (after 33) (Plan.Service_kill { service = Plan.S_disp });
        f 2 (reload 14 12) (Plan.Service_freeze { service = Plan.S_ckpt 2; thaw = 20 });
        f 0 (after 39) (Plan.Service_freeze { service = Plan.S_sched; thaw = 7 });
        f 0 (after 42) (Plan.Service_freeze { service = Plan.S_disp; thaw = 3 });
      ];
  }

let test_vocabulary_pin () =
  let p = vocabulary_plan in
  let kinds = List.map (fun f -> f.Plan.kind) p.Plan.faults in
  check_str "key"
    "kill@0@reload2+0;freeze8@1+3;part@2+6;deg50l2@3@reload5+3;heal@0+12;swedge@0+15;\
     swagg@1@reload8+6;swcore@2+21;pdeg300l5@3+24;skckpt@4@reload11+9;sksched@0+30;\
     skdisp@0+33;sfckpt20@2@reload14+12;sfsched7@0+39;sfdisp3@0+42"
    (Plan.key p);
  check_str "corpus fingerprint"
    "n_machines=13 targets=0,1,2,3 buckets=3,6,12 kinds=kill,freeze8,part,deg50l2,heal,\
     swedge,swagg,swcore,pdeg300l5,skckpt,sksched,skdisp,sfckpt20,sfsched7,sfdisp3 \
     max_faults=15 sample_seed=7"
    (Explore.Corpus.space_fingerprint
       {
         Explore.Corpus.n_machines = 13;
         targets = [ 0; 1; 2; 3 ];
         buckets = [ 3; 6; 12 ];
         kinds;
         max_faults = 15;
         sample_seed = 7;
       });
  let sig_hash = "0123456789abcdef" in
  let report =
    {
      Explore.config =
        {
          (Explore.default_config ~n_machines:13 ~targets:[ 0; 1; 2; 3 ] ~buckets:[ 3; 6; 12 ])
          with
          Explore.kinds;
          max_faults = 15;
          budget = 1;
          sample_seed = 7;
        };
      records =
        [
          {
            Explore.plan = p;
            verdict = Explore.Buggy;
            completion = Some 61.25;
            injected = 15;
            sig_hash;
          };
        ];
      coverage = [ (sig_hash, Explore.Buggy, 1) ];
      minimized =
        [
          {
            Explore.found = p;
            min_plan = p;
            min_verdict = Explore.Buggy;
            probes = 4;
            probes_saved = 2;
            scenario = Plan.to_scenario p;
          };
        ];
    }
  in
  let json = Explore.to_json report in
  let contains sub =
    try
      ignore (Str.search_forward (Str.regexp_string sub) json 0);
      true
    with Not_found -> false
  in
  check_bool "report kind names" true
    (contains
       "\"kinds\": [\"kill\", \"freeze8\", \"partition\", \"degrade50l2\", \"heal\", \
        \"switch-kill-edge\", \"switch-kill-agg\", \"switch-kill-core\", \"pod-degrade300l5\", \
        \"service-kill-ckpt\", \"service-kill-sched\", \"service-kill-disp\", \
        \"service-freeze-ckpt20\", \"service-freeze-sched7\", \"service-freeze-disp3\"]");
  check_str "report digest" "a5ab69d655f78c6a70defe5845aec3cb" (Digest.to_hex (Digest.string json));
  check_str "scenario digest" "f447213f37bd9f3f2fbf82b7be66b9f7"
    (Digest.to_hex (Digest.string (Plan.to_scenario p)));
  (match Plan.of_key ~n_machines:13 (Plan.key p) with
  | Ok q -> check plan_testable "key round-trip" p q
  | Error e -> Alcotest.failf "of_key failed: %s" e);
  check_scenario p

(* Random aligned plans over every kind and both anchors.  Service
   faults go through [align_service] (the ckpt index is the machine;
   sched/disp sit at machine 0) and heals at machine 0, the shapes
   every plan constructor produces. *)
let gen_plan =
  let open QCheck.Gen in
  let param = 0 -- 60 in
  let service = oneof [ return (Plan.S_ckpt 0); return Plan.S_sched; return Plan.S_disp ] in
  let kind =
    oneof
      [
        return Plan.Kill;
        map (fun thaw -> Plan.Freeze { thaw }) param;
        return Plan.Partition;
        map2 (fun loss latency -> Plan.Degrade { loss; latency }) (0 -- 1000) param;
        return Plan.Heal;
        map
          (fun tier -> Plan.Switch_kill { tier })
          (oneofl Fail_lang.Ast.[ Tier_edge; Tier_agg; Tier_core ]);
        map2 (fun loss latency -> Plan.Pod_degrade { loss; latency }) (0 -- 1000) param;
        map (fun service -> Plan.Service_kill { service }) service;
        map2 (fun service thaw -> Plan.Service_freeze { service; thaw }) service param;
      ]
  in
  let anchor =
    oneof
      [
        map (fun d -> Plan.After d) param;
        map2 (fun nth delay -> Plan.On_reload { nth; delay }) (1 -- 30) param;
      ]
  in
  let fault =
    map3
      (fun machine anchor kind ->
        let f = Plan.align_service { Plan.machine; anchor; kind } in
        if f.Plan.kind = Plan.Heal then { f with Plan.machine = 0 } else f)
      (0 -- 12) anchor kind
  in
  map (fun faults -> { Plan.n_machines = 13; faults }) (list_size (1 -- 4) fault)

let arb_plan = QCheck.make ~print:Plan.key gen_plan

let prop_key_roundtrip =
  QCheck.Test.make ~name:"of_key inverts key on every kind" ~count:300 arb_plan (fun p ->
      match Plan.of_key ~n_machines:p.Plan.n_machines (Plan.key p) with
      | Ok q -> p = q
      | Error e -> QCheck.Test.fail_reportf "of_key failed: %s" e)

let prop_scenario_compiles =
  QCheck.Test.make ~name:"to_scenario compiles on every kind" ~count:300 arb_plan (fun p ->
      match Fail_lang.Compile.compile_source (Plan.to_scenario p) with
      | Ok _ -> true
      | Error e -> QCheck.Test.fail_reportf "%s does not compile: %s" (Plan.key p) e)

(* ------------------------------------------------------------------ *)
(* Shrinker on synthetic oracles *)

let guarded test xs =
  if xs = [] then Alcotest.fail "oracle probed the empty list";
  test xs

let test_ddmin_singleton () =
  let minimal, probes = Shrink.ddmin ~test:(guarded (List.mem 5)) (List.init 8 Fun.id) in
  check (Alcotest.list Alcotest.int) "single culprit" [ 5 ] minimal;
  check_bool "probed" true (probes > 0)

let test_ddmin_pair () =
  let test = guarded (fun l -> List.mem 2 l && List.mem 7 l) in
  let minimal, _ = Shrink.ddmin ~test (List.init 10 Fun.id) in
  check (Alcotest.list Alcotest.int) "two culprits, order kept" [ 2; 7 ] minimal

let test_ddmin_irreducible () =
  (* Nothing can be removed: ddmin must hand the input back. *)
  let xs = [ 10; 20; 30; 40 ] in
  let minimal, _ = Shrink.ddmin ~test:(guarded (fun l -> List.length l = 4)) xs in
  check (Alcotest.list Alcotest.int) "all four needed" xs minimal

let delays p = List.map (fun f -> match f.Plan.anchor with Plan.After d -> d | Plan.On_reload { delay; _ } -> delay) p.Plan.faults

let test_coarsen () =
  let p =
    {
      Plan.n_machines = 8;
      faults =
        [
          { Plan.machine = 0; anchor = Plan.After 17; kind = Plan.Kill };
          { Plan.machine = 1; anchor = Plan.On_reload { nth = 3; delay = 7 }; kind = Plan.Kill };
        ];
    }
  in
  (* Reproduces iff the first strike lands at >= 10 s and the second
     >= 5 s after the reload: 17 must snap to 15 (grid 15), 7 to 5. *)
  let test q = match delays q with [ a; b ] -> a >= 10 && b >= 5 | _ -> false in
  let coarse, probes = Shrink.coarsen ~grid:[ 60; 30; 15; 5; 1 ] ~test p in
  check (Alcotest.list Alcotest.int) "snapped delays" [ 15; 5 ] (delays coarse);
  check_bool "probed" true (probes > 0);
  (* Anchors and machines survive coarsening untouched. *)
  check_bool "anchor kept" true
    (match (List.nth coarse.Plan.faults 1).Plan.anchor with
    | Plan.On_reload { nth = 3; delay = 5 } -> true
    | _ -> false)

let test_coarsen_already_coarse () =
  let p = { Plan.n_machines = 8; faults = [ { Plan.machine = 0; anchor = Plan.After 60; kind = Plan.Kill } ] } in
  let coarse, probes = Shrink.coarsen ~grid:[ 60; 30; 15; 5; 1 ] ~test:(fun _ -> true) p in
  check plan_testable "already on the coarsest grid" p coarse;
  check_int "free" 0 probes

(* ------------------------------------------------------------------ *)
(* Search streams *)

let stream_config =
  { (Explore.default_config ~n_machines:8 ~targets:[ 0; 1; 2; 3 ] ~buckets:[ 12; 3 ]) with Explore.budget = 80 }

let test_plans_stream () =
  (* 4 targets x 2 buckets x 1 kind = 8 singles, 64 ordered pairs. *)
  let ps = Explore.plans stream_config in
  check_int "grid size" 72 (List.length ps);
  check_int "budget truncates" 10 (List.length (Explore.plans { stream_config with Explore.budget = 10 }));
  let sampled = Explore.plans { stream_config with Explore.max_faults = 3; budget = 80 } in
  check_int "sampler fills the budget" 80 (List.length sampled);
  check_bool "sampled plans carry 3 faults" true
    (List.exists (fun p -> List.length p.Plan.faults = 3) sampled);
  check (Alcotest.list plan_testable) "stream is deterministic" sampled
    (Explore.plans { stream_config with Explore.max_faults = 3; budget = 80 });
  (* A fault on a host with no controller shoots nothing, so the search
     refuses it instead of reporting a clean run. *)
  Alcotest.check_raises "target beyond the compute hosts"
    (Invalid_argument "Explore.plans: target 8 is outside the compute hosts 0..7")
    (fun () -> ignore (Explore.plans { stream_config with Explore.targets = [ 0; 8 ] }))

(* The stream as it was defined before plan generation stopped at the
   budget: every single fault, every ordered pair of them, then the
   seeded sampler, truncated to the budget. *)
let plans_by_full_grid (cfg : Explore.config) =
  let plan faults = { Plan.n_machines = cfg.n_machines; faults } in
  let faults =
    List.concat_map
      (fun machine ->
        List.concat_map
          (fun bucket ->
            List.map
              (fun kind -> Plan.align_service { Plan.machine; anchor = Plan.After bucket; kind })
              cfg.kinds)
          cfg.buckets)
      cfg.targets
  in
  let singles = List.map (fun f -> plan [ f ]) faults in
  let pairs =
    List.concat_map (fun first -> List.map (fun second -> plan [ first; second ]) faults) faults
  in
  let grid = singles @ if cfg.max_faults >= 2 then pairs else [] in
  let rest = cfg.budget - List.length grid in
  let sampled =
    if rest <= 0 || cfg.max_faults < 3 then []
    else
      let rng = Simkern.Rng.create (Int64.of_int cfg.sample_seed) in
      List.init rest (fun i ->
          plan
            (List.init
               (3 + (i mod (cfg.max_faults - 2)))
               (fun _ ->
                 Plan.align_service
                   {
                     Plan.machine = Simkern.Rng.choose rng cfg.targets;
                     anchor = Plan.After (Simkern.Rng.choose rng cfg.buckets);
                     kind = Simkern.Rng.choose rng cfg.kinds;
                   })))
  in
  List.filteri (fun i _ -> i < cfg.budget) (grid @ sampled)

let test_plans_bounded () =
  List.iter
    (fun (max_faults, budget) ->
      let cfg = { stream_config with Explore.max_faults; budget } in
      check (Alcotest.list plan_testable)
        (Printf.sprintf "max_faults %d, budget %d" max_faults budget)
        (plans_by_full_grid cfg) (Explore.plans cfg))
    (List.concat_map
       (fun m -> List.map (fun b -> (m, b)) [ 1; 5; 8; 9; 20; 71; 72; 73; 80; 200 ])
       [ 2; 3 ])

(* ------------------------------------------------------------------ *)
(* Acceptance demo: the seeded dispatcher race *)

(* Small stencil deployment (the test_par golden configuration): fast,
   deterministic, and — with the seeded race compiled in — buggy
   whenever a second strike lands inside a recovery wave. *)
let demo_spec ~seeded =
  let n_ranks = 4 and n_machines = 8 in
  let app =
    Workload.Stencil.app
      { Workload.Stencil.iterations = 60; compute_time = 0.5; msg_bytes = 5_000; jitter = 0.0 }
      ~n_ranks
  in
  let cfg =
    {
      (Mpivcl.Config.default ~n_ranks) with
      Mpivcl.Config.protocol = Mpivcl.Config.Non_blocking;
      wave_interval = 10.0;
      term_straggler_prob = 0.0;
      dispatcher_buggy = false;
      vcl_seeded_race = seeded;
    }
  in
  {
    (Failmpi.Run.default_spec ~app ~cfg ~n_compute:n_machines ~state_bytes:1_000_000) with
    Failmpi.Run.timeout = 300.0;
    seed = 1L;
  }

let search ~seeded ~jobs =
  fst (Explore.run_spec ~jobs ~fork:false stream_config ~spec:(demo_spec ~seeded))

let seeded_j4 = lazy (search ~seeded:true ~jobs:4)
let seeded_j1 = lazy (search ~seeded:true ~jobs:1)
let defect_off = lazy (search ~seeded:false ~jobs:4)

let buggy_records rp =
  List.filter (fun rc -> rc.Explore.verdict = Explore.Buggy) rp.Explore.records

let test_seeded_defect_found () =
  let rp = Lazy.force seeded_j4 in
  check_int "all plans ran" 72 (List.length rp.Explore.records);
  check_bool "the race was rediscovered" true (buggy_records rp <> []);
  check_bool "single faults never trigger it" true
    (List.for_all
       (fun rc -> List.length rc.Explore.plan.Plan.faults >= 2)
       (buggy_records rp));
  (* Coverage partitions the records. *)
  check_int "coverage counts partition the runs" (List.length rp.Explore.records)
    (List.fold_left (fun acc (_, _, n) -> acc + n) 0 rp.Explore.coverage);
  check_bool "has witnesses" true (rp.Explore.minimized <> []);
  List.iter
    (fun m ->
      check_str "witness classification" (vname Explore.Buggy) (vname m.Explore.min_verdict);
      check_bool "shrunk to <= 2 faults" true (List.length m.Explore.min_plan.Plan.faults <= 2);
      check_bool "shrinking re-ran the oracle" true (m.Explore.probes > 0))
    rp.Explore.minimized

let test_witness_replays () =
  let rp = Lazy.force seeded_j4 in
  let m = List.hd rp.Explore.minimized in
  (* The emitted FAIL source is the minimized plan's... *)
  check_str "emitted scenario is the plan's" (Plan.to_scenario m.Explore.min_plan)
    m.Explore.scenario;
  (* ...replays with the same classification with the defect present... *)
  let replay = Explore.runner_of_spec (demo_spec ~seeded:true) m.Explore.min_plan in
  check_str "replay reproduces the verdict" (vname Explore.Buggy)
    (vname (Explore.verdict_of_outcome replay.Failmpi.Run.outcome));
  check_bool "both strikes landed" true (replay.Failmpi.Run.injected_faults >= 2);
  (* ...and completes cleanly once the defect is disabled. *)
  let fixed = Explore.runner_of_spec (demo_spec ~seeded:false) m.Explore.min_plan in
  check_str "defect off: witness is harmless" (vname Explore.Completed)
    (vname (Explore.verdict_of_outcome fixed.Failmpi.Run.outcome))

let test_defect_off_clean () =
  let rp = Lazy.force defect_off in
  check_int "zero buggy runs" 0 (List.length (buggy_records rp));
  check_int "nothing to minimize" 0 (List.length rp.Explore.minimized)

let test_jobs_identical () =
  check_str "jobs 1 = jobs 4, byte for byte"
    (Explore.to_json (Lazy.force seeded_j1))
    (Explore.to_json (Lazy.force seeded_j4))

let () =
  Alcotest.run "explore"
    [
      ( "plan",
        [
          Alcotest.test_case "scenario round-trip" `Quick test_plan_roundtrip;
          Alcotest.test_case "keys" `Quick test_plan_key;
          Alcotest.test_case "double_strike.fail" `Quick test_double_strike_file;
          Alcotest.test_case "service plan round-trip" `Quick test_service_plan_roundtrip;
          Alcotest.test_case "align_service" `Quick test_align_service;
          Alcotest.test_case "ckpt_sniper.fail" `Quick test_ckpt_sniper_file;
          Alcotest.test_case "vocabulary pin" `Quick test_vocabulary_pin;
        ]
        @ List.map
            (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 18 |]))
            [ prop_key_roundtrip; prop_scenario_compiles ] );
      ( "shrink",
        [
          Alcotest.test_case "ddmin singleton" `Quick test_ddmin_singleton;
          Alcotest.test_case "ddmin pair" `Quick test_ddmin_pair;
          Alcotest.test_case "ddmin irreducible" `Quick test_ddmin_irreducible;
          Alcotest.test_case "coarsen" `Quick test_coarsen;
          Alcotest.test_case "coarsen already coarse" `Quick test_coarsen_already_coarse;
        ] );
      ( "stream",
        [
          Alcotest.test_case "plans" `Quick test_plans_stream;
          Alcotest.test_case "plans stop at the budget" `Quick test_plans_bounded;
        ] );
      ( "acceptance",
        [
          Alcotest.test_case "seeded defect found and shrunk" `Quick test_seeded_defect_found;
          Alcotest.test_case "witness replays" `Quick test_witness_replays;
          Alcotest.test_case "defect off is clean" `Quick test_defect_off_clean;
          Alcotest.test_case "jobs 1 = jobs 4" `Quick test_jobs_identical;
        ] );
    ]
