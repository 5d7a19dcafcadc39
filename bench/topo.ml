(* The topo suite: topology.

   Part 1 — the no-geometry guarantee: the same fixed-seed replication
   BT runs with no declared topology vs a flat mesh vs a 4-ary fat
   tree, all unperturbed. Routing is only consulted when a component
   fault resolves, so the three must agree on every observable (outcome,
   time, faults, checksums, counters), and a declared fabric may
   allocate at most 2% more minor words; the suite refuses to write its
   file otherwise. The flat-mesh runs are also replayed through the
   parallel harness at --jobs 1 and --jobs 4 and compared observable for
   observable, pinning seed determinism.

   Part 2 — the blast radius: one fixed-seed replication run per
   fat-tree component fault (edge / aggregation / core switch kill, pod
   degrade), recording wall time, the verdict and the fabric counters.
   The simulated-time companion is `failmpi_experiments topo`. *)

module S = Fail_lang.Codegen.Scenario

let k = 4
let n_machines = k * k * k / 4
let reps = 10
let fat_tree = Simtopo.Topo.Fat_tree { k }

let run_bt ?topology ?scenario ~seed () =
  Fixture.bt4 ~n_machines ?scenario ~seed (fun c ->
      { c with Mpivcl.Config.protocol = Mpivcl.Config.Replication { degree = 2 }; topology })

let faults =
  [
    ("edge_switch_kill", S.Switch_kill { tier = Fail_lang.Ast.Tier_edge });
    ("agg_switch_kill", S.Switch_kill { tier = Fail_lang.Ast.Tier_agg });
    ("core_switch_kill", S.Switch_kill { tier = Fail_lang.Ast.Tier_core });
    ("pod_degrade", S.Pod_degrade { loss = 300; latency = 5 });
  ]

let run ~smoke:_ =
  Printf.printf "topo: none vs flat vs fat-tree:%d (%d runs each)...\n%!" k reps;
  let sample topology = Fixture.sample ~reps (fun ~seed -> run_bt ?topology ~seed ()) in
  let no_geometry =
    Fixture.overheads ~suite:"topo" ~group:"no_geometry" ~limit_pct:2.0
      ("plain", sample None)
      [
        ( "flat",
          sample (Some Simtopo.Topo.Flat),
          "flat mesh diverged from the no-topology path" );
        ( "fat_tree",
          sample (Some fat_tree),
          "unperturbed fat tree diverged from the no-topology path" );
      ]
  in
  Printf.printf "topo: flat-mesh determinism across --jobs...\n%!";
  let replicate jobs =
    Experiments.Harness.replicate ~jobs ~reps ~base_seed:1 (fun ~seed ->
        run_bt ~topology:Simtopo.Topo.Flat ~seed ())
    |> List.map Fixture.observables
  in
  if replicate 1 <> replicate 4 then
    Record.refuse "topo" "flat-mesh run diverged between --jobs 1 and --jobs 4";
  no_geometry
  @ List.concat_map
      (fun (name, kind) ->
        Printf.printf "topo: component fault %s...\n%!" name;
        let scenario = S.source ~n_machines [ { S.machine = 0; anchor = S.After 20; kind } ] in
        let r, wall_ms = Fixture.timed (run_bt ~topology:fat_tree ~scenario ~seed:1L) in
        Fixture.verdict ~counters:Fixture.net_counters ("component_faults/" ^ name) ~wall_ms r)
      faults
