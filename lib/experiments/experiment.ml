module C = Mpivcl.Config
module P = Fail_lang.Paper_scenarios
module S = Fail_lang.Codegen.Scenario

type table = {
  title : string;
  columns : Harness.column list;
  cells : string Harness.cell list;
  csv : string option;
}

type t = { name : string; tables : quick:bool -> table list; note : string option }

let table csv columns title cells = { title; columns; cells; csv }

(* One configuration: [reps] BT runs of [cfg] on [n_machines] hosts under
   [scenario], seeded from [seed] and labelled [label]. *)
let bt ~cfg ~klass ~n_machines ~reps ~seed scenario label =
  Harness.cell ~tag:label ~reps ~base_seed:seed (fun ~seed ->
      Harness.run_bt ~cfg ~klass ~n_ranks:cfg.C.n_ranks ~n_machines ~scenario ~seed ())

(* A fault-free row and a faulty row of one BT size, the faulty one
   seeded 50 later. *)
let pair ~cfg ~klass ~clean_reps ~reps ~seed ~prefix ~faulty scenario =
  let n_machines = Harness.machines_for cfg.C.n_ranks in
  [
    bt ~cfg ~klass ~n_machines ~reps:clean_reps ~seed None (prefix ^ " (no faults)");
    bt ~cfg ~klass ~n_machines ~reps ~seed:(seed + 50)
      (Some (scenario ~n_machines))
      (Printf.sprintf "%s (%s)" prefix faulty);
  ]

(* Figures 6, 9 and 11: BT class B at every size, without and with the
   figure's faults. *)
let by_size ~sizes ~clean_reps ~reps ~seed ~faulty scenario =
  List.concat_map
    (fun n_ranks ->
      pair ~cfg:(C.default ~n_ranks) ~klass:Workload.Bt_model.B ~clean_reps ~reps ~seed
        ~prefix:(Printf.sprintf "BT %d" n_ranks) ~faulty scenario)
    sizes

(* Every backend, not a hard-coded family list: a backend joins the
   families, netfault and shrink grids by being listed in
   Backend.Builtin.all. They share one cluster: 9 ranks of class A on 22
   machines, which degree-2 replication needs (18 replicas + 4 spares),
   so every backend faces the exact same FAIL scenario text. The shrink
   family keeps [spares] warm spare daemons. *)
let every_backend ~spares ~reps ~seed rows =
  let base = C.default ~n_ranks:9 in
  List.concat_map
    (fun (row, scenario, net) ->
      List.map
        (fun (module B : Failmpi.Backend.S) ->
          let protocol =
            match B.protocol ~replicas:2 with C.Ulfm _ -> C.Ulfm { spares } | p -> p
          in
          bt
            ~cfg:{ base with C.protocol; net }
            ~klass:Workload.Bt_model.A ~n_machines:22 ~reps ~seed scenario
            (Printf.sprintf "%s %s" row (B.family_label ~replicas:2)))
        (Failmpi.Backend.all ()))
    rows

(* A fault on [machine], [after] seconds after the previous one (the
   first: after the run starts). *)
let at machine after kind = { S.machine; anchor = S.After after; kind }

let pct n a = 100.0 *. float_of_int n /. float_of_int (max 1 a.Harness.runs)

(* The per-run mean of backend counter [name]. *)
let metric head width digits name = Harness.num head width digits (fun a -> Harness.counter a name)

(* ---------- the paper's figures (§5) ---------- *)

let fig5 ~quick =
  let n_machines = 53 in
  let periods =
    if quick then [ None; Some 60; Some 45 ]
    else [ None; Some 65; Some 60; Some 55; Some 50; Some 45; Some 40 ]
  in
  [
    table (Some "fig5") Harness.standard "Figure 5: impact of fault frequency (BT-49 class B)"
      (List.map
         (fun period ->
           bt ~cfg:(C.default ~n_ranks:49) ~klass:Workload.Bt_model.B ~n_machines
             ~reps:(if quick then 2 else 6)
             ~seed:100
             (Option.map (fun period -> P.frequency ~n_machines ~period) period)
             (match period with
             | None -> "no faults"
             | Some p -> Printf.sprintf "every %d sec" p))
         periods);
  ]

let sizes ~quick = if quick then [ 25; 49 ] else [ 25; 36; 49; 64 ]

let fig6 ~quick =
  let reps = if quick then 2 else 5 in
  [
    table (Some "fig6") Harness.standard "Figure 6: impact of scale (1 fault every 50 s)"
      (by_size ~sizes:(sizes ~quick) ~clean_reps:reps ~reps ~seed:200 ~faulty:"1/50s"
         (P.frequency ~period:50));
  ]

let fig7 ~quick =
  let n_machines = 53 in
  [
    table (Some "fig7") Harness.standard
      "Figure 7: impact of simultaneous faults (BT-49, every 50 s)"
      (List.map
         (fun count ->
           bt ~cfg:(C.default ~n_ranks:49) ~klass:Workload.Bt_model.B ~n_machines
             ~reps:(if quick then 3 else 6)
             ~seed:300
             (Some (P.simultaneous ~n_machines ~period:50 ~count))
             (Printf.sprintf "%d fault%s" count (if count = 1 then "" else "s")))
         (if quick then [ 1; 5 ] else [ 1; 2; 3; 4; 5 ]));
  ]

(* Figures 9 and 11: two faults, the second synchronized with the first
   recovery wave (Figure 8's scenario: at the relaunched daemon's onload;
   Figure 10's: just before localMPI_setCommand). *)
let synchronized ~quick ~csv ~seed ~faulty title scenario =
  [
    table (Some csv) Harness.standard title
      (by_size ~sizes:(sizes ~quick) ~clean_reps:2
         ~reps:(if quick then 3 else 6)
         ~seed ~faulty (fun ~n_machines -> scenario ~n_machines ~period:50));
  ]

let fig9 ~quick =
  synchronized ~quick ~csv:"fig9" ~seed:400 ~faulty:"2 sync faults"
    "Figure 9: impact of synchronized faults (2nd on recovery onload)" P.synchronized

let fig11 ~quick =
  synchronized ~quick ~csv:"fig11" ~seed:500 ~faulty:"state sync"
    "Figure 11: synchronized faults depending on MPI state (localMPI_setCommand)"
    P.state_synchronized

(* ---------- ablations of the design choices in DESIGN.md ---------- *)

let ablations ~quick =
  let n_ranks = if quick then 25 else 49 in
  let n_machines = Harness.machines_for n_ranks in
  let reps = if quick then 2 else 4 in
  let cfg = C.default ~n_ranks in
  let bt = bt ~klass:Workload.Bt_model.B ~n_machines in
  let frequency period = Some (P.frequency ~n_machines ~period) in
  [
    (* The corrected dispatcher must never freeze under the two
       bug-exposing scenarios (Figure 7 at 5 faults and Figure 11). *)
    table None Harness.standard "Ablation: historical vs corrected dispatcher"
      (List.concat_map
         (fun (name, scenario) ->
           List.map
             (fun buggy ->
               bt
                 ~cfg:{ cfg with C.dispatcher_buggy = buggy }
                 ~reps:(if quick then 2 else 6)
                 ~seed:1000 (Some scenario)
                 (Printf.sprintf "%s (%s)" name (if buggy then "historical" else "corrected")))
             [ true; false ])
         [
           ("5 faults/50s", P.simultaneous ~n_machines ~period:50 ~count:5);
           ("state-sync", P.state_synchronized ~n_machines ~period:50);
         ]);
    (* The blocking variant pays for frozen communications in each wave. *)
    table None Harness.standard "Ablation: non-blocking vs blocking Chandy-Lamport (no faults)"
      (List.concat_map
         (fun interval ->
           List.map
             (fun protocol ->
               bt
                 ~cfg:{ cfg with C.protocol; wave_interval = interval }
                 ~reps:2 ~seed:700 None
                 (Printf.sprintf "wave %2.0fs %s" interval (C.protocol_name protocol)))
             [ C.Non_blocking; C.Blocking ])
         [ 10.0; 30.0; 60.0 ]);
    (* The frequency/interval crossover behind Figure 5's 45 s anomaly. *)
    table None Harness.standard "Ablation: checkpoint interval under 1 fault / 50 s"
      (List.map
         (fun interval ->
           bt
             ~cfg:{ cfg with C.wave_interval = interval }
             ~reps ~seed:800 (frequency 50)
             (Printf.sprintf "ckpt every %2.0fs" interval))
         [ 10.0; 20.0; 30.0; 40.0 ]);
    (* The comparison the paper's conclusion proposes (cf. [LBH+04]):
       sender-based logging restarts only the failed rank, so it keeps
       terminating where the coordinated protocol can no longer commit a
       global wave between faults. *)
    table None Harness.standard
      "Ablation: coordinated checkpointing vs sender-based message logging"
      (List.concat_map
         (fun period ->
           List.map
             (fun (name, cfg) ->
               bt ~cfg ~reps ~seed:1100 (frequency period)
                 (Printf.sprintf "1/%ds %s" period name))
             [
               (* Vdummy: no checkpoint ever commits, so every fault
                  restarts the application from scratch. *)
               ("Vdummy (no ckpt)", { cfg with C.wave_interval = 1e9 });
               ("Vcl (coordinated)", { cfg with C.protocol = C.Non_blocking });
               ("V2 (msg logging)", { cfg with C.protocol = C.Sender_logging });
             ])
         [ 65; 50; 40; 30 ]);
  ]

(* ---------- the protocol families under identical faults ---------- *)

let families ~quick =
  [
    table (Some "families")
      Harness.
        [
          label 26;
          runs 5;
          time 9;
          num "faults" 8 1 (fun a -> a.mean_faults);
          metric "rollbk" 7 1 "recoveries";
          metric "failover" 9 1 "failovers";
          metric "respawn" 9 1 "respawns";
          num "%nonterm" 8 0 (fun a -> a.pct_non_terminating);
          num "%buggy" 7 0 (fun a -> a.pct_buggy);
          chk 5;
        ]
      "Protocol families: rollback recovery (Vcl, V2) vs active replication"
      (every_backend ~spares:0
         ~reps:(if quick then 2 else 3)
         ~seed:1300
         (List.map
            (fun period ->
              match period with
              | None -> ("no faults", None, None)
              | Some period ->
                  ( Printf.sprintf "1/%ds" period,
                    Some (P.frequency ~n_machines:22 ~period),
                    None ))
            (if quick then [ None; Some 50 ] else [ None; Some 80; Some 50 ])));
  ]

(* Message loss through the launch-time perturbation profile and the
   reliable transport. *)
let netfault ~quick =
  let row loss =
    if loss = 0.0 then ("loss 0%", None, None)
    else
      ( Printf.sprintf "loss %g%%" (loss *. 100.0),
        None,
        Some
          {
            Simnet.Net.Perturb.default_profile with
            Simnet.Net.Perturb.base = { Simnet.Net.Perturb.loss; latency = 0.0; jitter = 0.0 };
          } )
  in
  [
    table (Some "netfault")
      Harness.
        [
          label 28;
          runs 5;
          time 9;
          metric "dropped" 9 0 "net_dropped";
          metric "retrans" 9 0 "net_retransmits";
          num "%nethung" 8 0 (fun a -> a.pct_net_hung);
          num "%buggy" 8 0 (fun a -> a.pct_buggy);
          chk 5;
        ]
      "Network faults: message loss vs protocol backend (reliable transport)"
      (every_backend ~spares:0
         ~reps:(if quick then 2 else 3)
         ~seed:1700
         (List.map row (if quick then [ 0.0; 0.05 ] else [ 0.0; 0.02; 0.05; 0.10 ])));
  ]

(* Replication (2 replicas per rank) on a 4-ary fat tree: 16 hosts, slot
   0 of every rank fills pod 0 (hosts 0..3), slot 1 fills pod 1 (hosts
   4..7), and rack r is the host pair {2r, 2r+1}. Every faulty cell
   loses two hosts at the same time; only the placement differs. Killing
   edge switch 0 blacks out rack 0, one replica each of ranks 0 and 1,
   which keep their other-pod replica. Cutting hosts 0 and 4 takes both
   replicas of rank 0: same host count, no survivor to continue from. *)
let topo ~quick =
  let n_machines = 16 in
  let cfg =
    {
      (C.default ~n_ranks:4) with
      C.protocol = C.Replication { degree = 2 };
      topology = Some (Simtopo.Topo.Fat_tree { k = 4 });
    }
  in
  let faults fs = Some (S.source ~n_machines fs) in
  [
    table (Some "topo")
      Harness.
        [
          label 34;
          runs 5;
          time 9;
          num "%done" 6 0 (fun a -> pct (a.completed + a.degraded) a);
          (* a severed replica pair leaves the survivors retransmitting
             forever: the wedge shows up as non-terminating, net-hung
             or buggy depending on timing, so tally all three *)
          num "%wedged" 8 0 (fun a -> pct (a.non_terminating + a.buggy + a.net_hung) a);
          num "%abort" 8 0 (fun a -> a.pct_aborted);
          chk 5;
        ]
      "Topology-correlated faults: placement decides survival (replication, fat-tree:4)"
      (List.map
         (fun (label, scenario) ->
           bt ~cfg ~klass:Workload.Bt_model.A ~n_machines
             ~reps:(if quick then 2 else 3)
             ~seed:1900 scenario label)
         [
           ("fault-free", None);
           ( "rack-correlated (edge switch 0)",
             faults [ at 0 20 (S.Switch_kill { tier = Fail_lang.Ast.Tier_edge }) ] );
           ( "independent cross-pod (hosts 0,4)",
             faults [ at 0 20 S.Partition; at 4 0 S.Partition ] );
           ( "degrade pod 0 (30% loss, 5 ms)",
             faults [ at 0 20 (S.Pod_degrade { loss = 300; latency = 5 }) ] );
         ]);
  ]

(* Six of the eleven epoch-0 members of the shrink grid (nine ranks plus
   the two warm spares on hosts 9 and 10) cut off, each isolated: no side
   of the fabric holds a majority of the superseded epoch, so the
   survivor agreement must refuse to decide (clean abort), never
   split-brain; backends without a give-up path wedge. *)
let quorum_loss =
  S.source ~n_machines:22
    (List.mapi
       (fun i machine -> at machine (if i = 0 then 30 else 1) S.Partition)
       [ 3; 4; 5; 6; 7; 8 ])

(* Recovery time vs answer quality. Fault targets stay below rank 9: on
   every layout they hit a rollback daemon, a slot-0 replica or a ulfm
   member. The storm (scenarios/shrink_storm.fail) kills three ranks,
   then cuts one during the agreement they triggered: the unsuspected
   membership is exactly a majority of the original epoch, so shrink
   must still decide and complete degraded. *)
let shrink ~quick =
  let storm =
    P.shrink_storm ~n_machines:22 ~targets:[ 1; 5; 7 ] ~start:25 ~step:3 ~victim:2 ~lag:2
  in
  let kill_one = ("kill x1", Some (S.source ~n_machines:22 [ at 3 30 S.Kill ]), None) in
  let quorum_loss = ("quorum loss", Some quorum_loss, None) in
  [
    table (Some "shrink")
      Harness.
        [
          label 32;
          runs 5;
          time 8;
          metric "shrink" 6 1 "recoveries";
          opt "surv" 5 1 (fun a -> a.mean_survivors);
          metric "promote" 7 1 "spares_promoted";
          metric "adopt" 6 1 "ranks_adopted";
          num "%degr" 6 0 (fun a -> a.pct_degraded);
          num "%abrt" 6 0 (fun a -> a.pct_aborted);
          num "%wedged" 7 0 (fun a -> a.pct_non_terminating +. a.pct_buggy +. a.pct_net_hung);
          chk 5;
        ]
      "Shrink-and-continue: recovery time vs answer quality, five backends"
      (every_backend ~spares:2
         ~reps:(if quick then 2 else 3)
         ~seed:2100
         (if quick then [ kill_one; quorum_loss ]
          else
            [
              ("no faults", None, None); kill_one; ("storm k3+cut", Some storm, None); quorum_loss;
            ]));
  ]

(* Figure 6 at simulation scale: the physical testbed stopped at BT-64.
   Class C at 1024 and 4096 ranks runs long enough (~10 s of compute at
   4096) for a 6 s fault period to land several faults; the quick run
   uses class B at 64 and 256 ranks with a 30 s period. *)
let scale ~quick =
  let klass, sizes, period =
    if quick then (Workload.Bt_model.B, [ 64; 256 ], 30)
    else (Workload.Bt_model.C, [ 1024; 4096 ], 6)
  in
  (* The paper's 3-server checkpoint tier would need hundreds of
     simulated seconds per wave at this size, so no wave could commit
     between two faults: the storage tier scales with the machine and
     the wave interval shrinks with the time to solution. The §5.3 race
     fires almost surely at one fault per few seconds; this figure
     measures scaling cost, so it runs the fixed dispatcher. The 2006
     testbed's termination lags, drawn per daemon, would make every
     global restart take ~18 s at thousands of daemons, so teardown
     runs at machine speed. The eager all-to-all daemon mesh is
     quadratic in ranks, so channels open on first send. *)
  let cfg protocol ~n_ranks =
    {
      (C.default ~n_ranks) with
      C.protocol;
      n_ckpt_servers = 64;
      server_bandwidth = 4e9;
      wave_interval = 2.0;
      dispatcher_buggy = false;
      term_lag_min = 0.1;
      term_lag_max = 0.5;
      term_straggler_prob = 0.0;
      lazy_peer_mesh = true;
    }
  in
  [
    table (Some "scale") Harness.standard "Figure 6 at simulation scale (3 protocol families)"
      (List.concat_map
         (fun n_ranks ->
           List.concat_map
             (fun protocol ->
               pair ~cfg:(cfg protocol ~n_ranks) ~klass ~clean_reps:1 ~reps:1 ~seed:700
                 ~prefix:(Printf.sprintf "BT %d %s" n_ranks (C.protocol_name protocol))
                 ~faulty:(Printf.sprintf "1/%ds" period)
                 (P.frequency ~period))
             [ C.Non_blocking; C.Blocking; C.Sender_logging ])
         sizes);
  ]

(* Storage-plane faults against the rollback families, the only ones
   that own the checkpoint plane, at replication factor 1 and 2. The
   scheduler broadcasts markers at t = 30; the server bandwidth is
   lowered from the calibrated 1e8 so a wave's store window runs well
   past t = 32 and a kill two seconds into it lands mid-commit. *)
let ckptfault ~quick =
  let n_machines = 13 in
  let kill_server machine after server =
    at machine after (S.Service_kill { service = S.S_ckpt server })
  in
  let scenarios =
    [
      (* no store in flight: waves time out or redirect and the
         respawned server rejoins *)
      ("between-waves", [ kill_server 0 18 0 ]);
      (* a torn write, then a rank that must restore: a mirror fails the
         fetch over, a single replica ends in ckpt-lost, never a hang *)
      ("mid-commit kill", [ kill_server 0 32 0; at 1 6 S.Kill ]);
      (* no complete image survives anywhere: ckpt-lost at both factors *)
      ("primary+mirror kill", [ kill_server 0 32 0; kill_server 1 1 1; at 1 5 S.Kill ]);
      (* the store-ack timeout abandons the wave instead of wedging, and
         the thawed server serves later waves *)
      ("freeze-thaw server", [ at 0 32 (S.Service_freeze { service = S.S_ckpt 0; thaw = 20 }) ]);
    ]
  in
  [
    table (Some "ckptfault")
      Harness.
        [
          label 32;
          runs 5;
          time 9;
          num "%ckplost" 9 0 (fun a -> a.pct_ckpt_lost);
          num "%buggy" 8 0 (fun a -> a.pct_buggy);
          num "%nonterm" 8 0 (fun a -> a.pct_non_terminating);
          metric "waves" 8 1 "committed_waves";
          chk 5;
        ]
      "Checkpoint storage faults: server kills and freezes vs replication factor"
      (List.concat_map
         (fun (name, faults) ->
           List.concat_map
             (fun family ->
               let (module B : Failmpi.Backend.S) = Option.get (Failmpi.Backend.find family) in
               List.map
                 (fun replicas ->
                   bt
                     ~cfg:
                       {
                         (C.default ~n_ranks:9) with
                         C.protocol = B.protocol ~replicas:1;
                         server_bandwidth = 1e7;
                         ckpt_replicas = replicas;
                       }
                     ~klass:Workload.Bt_model.A ~n_machines
                     ~reps:(if quick then 1 else 3)
                     ~seed:2100
                     (Some (S.source ~n_machines faults))
                     (Printf.sprintf "%s %s x%d" name family replicas))
                 [ 1; 2 ])
             [ "vcl"; "blocking"; "v2" ])
         scenarios);
  ]

(* The paper's planned feature (§5.2, conclusion), in our FAIL dialect:
   one controller on machine 0 watches the daemon-exported [wave]
   variable and halts its daemon [delay] seconds after the second
   completed checkpoint wave. The other machines carry no FAIL daemon. *)
let delay_scenario ~delay =
  Printf.sprintf
    {|
Daemon DELAYED {
  node 1:
    onload -> continue, goto 2;
  node 2:
    watch(wave) && @wave >= 2 -> goto 3;
  node 3:
    time t = %d;
    timer -> halt, goto 4;
  node 4:
    onload -> continue, goto 4;
    onexit -> goto 4;
    onerror -> goto 4;
}
G1[1] : DELAYED on machines 0 .. 0;
|}
    delay

let delay ~quick =
  [
    table None Harness.standard
      "Planned feature: delay between checkpoint wave and fault vs execution time"
      (List.map
         (fun delay ->
           bt ~cfg:(C.default ~n_ranks:49) ~klass:Workload.Bt_model.B ~n_machines:53
             ~reps:(if quick then 1 else 3)
             ~seed:900
             (Some (delay_scenario ~delay))
             (Printf.sprintf "delay %2d s after wave" delay))
         (if quick then [ 0; 10; 20 ] else [ 0; 5; 10; 15; 20; 25 ]));
  ]

(* Tool_comparison.render ends in a newline that [run] adds back. *)
let tools =
  let t = Fail_lang.Tool_comparison.render () in
  "Table (2.1): comparison of distributed fault-injection tools\n\n"
  ^ String.sub t 0 (String.length t - 1)

let all =
  [
    { name = "table1"; tables = (fun ~quick:_ -> []); note = Some tools };
    {
      name = "fig5";
      tables = fig5;
      note =
        Some
          "Paper (Fig. 5, read off the plot): no faults ~210 s; execution time of\n\
           terminated runs grows with fault frequency (~400 s at 65 s .. ~1000 s at\n\
           40 s) with a dip at 45 s (faults landing just after the 30 s checkpoint\n\
           waves); non-terminating percentage grows from 0% (no faults / 65 s) to\n\
           ~80-90% at one fault every 40 s; no buggy runs (faults never overlap a\n\
           recovery).";
    };
    {
      name = "fig6";
      tables = fig6;
      note =
        Some
          "Paper (Fig. 6): no-fault times decrease with scale (~370 s at BT-25 down\n\
           to ~150 s at BT-64); with one fault every 50 s the times are 1x..2.5x\n\
           the no-fault times with variance growing with scale; one of five BT-25\n\
           runs was non-terminating (largest per-rank images: checkpoint waves\n\
           synchronised by chance with the injection period); no buggy runs.";
    };
    {
      name = "fig7";
      tables = fig7;
      note =
        Some
          "Paper (Fig. 7): execution time of terminated runs grows with the number\n\
           of simultaneous faults (~500-700 s at 4-5 faults); at 5 (or 6)\n\
           simultaneous faults one third of the experiments had buggy behaviour —\n\
           frozen during the recovery phase; the bug does not appear spontaneously\n\
           with fewer simultaneous faults.";
    };
    {
      name = "fig9";
      tables = fig9;
      note =
        Some
          "Paper (Fig. 9): even with only two synchronized faults, for every scale\n\
           some experiments froze because of the dispatcher bug, while a large\n\
           majority completed — showing the bug lives in the recovery code and\n\
           does not depend on the application size.";
    };
    {
      name = "fig11";
      tables = fig11;
      note =
        Some
          "Paper (Fig. 11): in every case, every experiment froze during the\n\
           recovery wave — the second failure hits a process that has registered\n\
           with the dispatcher while other processes of the previous wave are\n\
           still being stopped, and the dispatcher forgets to relaunch at least\n\
           one computing node.";
    };
    { name = "ablations"; tables = ablations; note = None };
    {
      name = "families";
      tables = families;
      note =
        Some
          "Expectation (paper §6 outlook): the rollback families pay a recovery\n\
           wave per fault (Vcl rolls every rank back, V2 replays the failed rank\n\
           from its logs), so completed-run time grows with fault frequency; the\n\
           replication family absorbs the same faults as zero-rollback failovers\n\
           (rollbk stays 0) at the cost of degree x the compute resources, and\n\
           only exhausts when all replicas of one rank die within the failover\n\
           window. All completed runs must agree on the checksums.";
    };
    {
      name = "netfault";
      tables = netfault;
      note =
        Some
          "Expectation: with the reliable transport armed, moderate loss costs\n\
           retransmission time, not correctness — every backend completes with\n\
           matching checksums, slower as loss grows (replication pays the most:\n\
           its multicast multiplies exposed messages). A run that wedges under\n\
           active loss is classified net-hung, never buggy: the §5 classifier\n\
           only calls 'buggy' a freeze the fabric cannot explain.";
    };
    {
      name = "topo";
      tables = topo;
      note =
        Some
          "Expectation: the rack-correlated blackout (one dead edge switch, two\n\
           hosts severed) takes one replica each of two ranks — both keep their\n\
           other-pod replica and the run completes. Cutting the same number of\n\
           hosts across pods instead takes both replicas of rank 0 and the run\n\
           wedges: equal fault count, different blast radius. Degrading a pod\n\
           costs retransmission time, never correctness.";
    };
    {
      name = "shrink";
      tables = shrink;
      note =
        Some
          "Expectation: the rollback families restore the full membership after\n\
           every kill (time grows with each recovery wave) and wedge net-hung\n\
           when the fabric never heals; replication absorbs kills as failovers\n\
           until a rank's replicas are exhausted. The shrink family instead\n\
           completes degraded — same checksum, smaller machine — promoting warm\n\
           spares and adopting orphaned ranks, so its time column buys answer\n\
           quality with capacity. In the quorum-loss cell no side of the cut\n\
           holds a majority of the superseded epoch: the survivor agreement\n\
           refuses to decide and aborts cleanly (never two different\n\
           memberships), while backends without a give-up path time out.\n\
           Checksums of completed and degraded runs must always match the\n\
           fault-free reference.";
    };
    {
      name = "scale";
      tables = scale;
      note =
        Some
          "Beyond the paper: the physical FAIL-MPI testbed topped out at BT-64 on\n\
           Grid'5000; the simulation core re-runs the Figure 6 protocol\n\
           (no-fault baseline vs one fault every few seconds) at 1024 and 4096\n\
           ranks across the non-blocking, blocking and sender-logging families.\n\
           Checksums of completed runs are verified against the sequential\n\
           reference; rollback-recovery cost grows with scale exactly as the\n\
           paper's trend line predicts.";
    };
    {
      name = "ckptfault";
      tables = ckptfault;
      note =
        Some
          "Expectation: between-wave kills and freeze/thaws only cost time — the\n\
           scheduler abandons the wave on its store-ack timeout and the respawned\n\
           (or thawed) server rejoins, so every backend completes with matching\n\
           checksums. A mid-commit kill tears the in-flight image on the dead\n\
           server's disk: for the wave-coordinated families (vcl, blocking) a\n\
           mirror (x2) fails the restore over and no verdict changes, while a\n\
           single replica (x1) leaves the restart without a complete image and\n\
           the run ends decisively in ckpt-lost — never a hang. Killing a rank's\n\
           primary and its mirror is unsurvivable at either factor for the\n\
           coordinated families. v2's sender-logging stores uncoordinated\n\
           per-rank images at protocol-chosen instants, so a wave-timed kill can\n\
           land outside its store window — its rows show how uncoordinated\n\
           commit points shift the exposure, not a storage-plane difference.";
    };
    { name = "delay"; tables = delay; note = None };
  ]

let names = List.map (fun e -> e.name) all

let write_csv ~dir name aggs =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (name ^ ".csv") in
  let oc = open_out path in
  output_string oc (Harness.aggs_csv aggs);
  close_out oc;
  Printf.printf "(data written to %s)\n" path

let run ~quick ~csv e =
  List.iter
    (fun t ->
      let aggs =
        List.map
          (fun (label, results) -> Harness.aggregate ~label results)
          (Harness.campaign t.cells)
      in
      (match (csv, t.csv) with Some dir, Some name -> write_csv ~dir name aggs | _ -> ());
      print_string (Harness.render ~title:t.title ~columns:t.columns aggs);
      print_newline ())
    (e.tables ~quick);
  Option.iter
    (fun note ->
      print_endline note;
      print_newline ())
    e.note
