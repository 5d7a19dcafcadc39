type case = Baseline | Kill_one | Storm | Quorum_loss

type config = {
  klass : Workload.Bt_model.klass;
  n_ranks : int;
  degree : int;
  spares : int;
  n_machines : int;
  cases : case list;
  reps : int;
  base_seed : int;
}

(* Same 22-machine cluster as the protocol-family comparison (degree-2
   replication needs 20 hosts; the shrink backend parks its warm spares
   on hosts 9 and 10), so all five backends face the exact same scenario
   text. Fault targets stay below rank 9: on every layout that hits a
   "primary" — a rollback daemon, a slot-0 replica, a ulfm member. *)
let default_config =
  {
    klass = Workload.Bt_model.A;
    n_ranks = 9;
    degree = 2;
    spares = 2;
    n_machines = 22;
    cases = [ Baseline; Kill_one; Storm; Quorum_loss ];
    reps = 3;
    base_seed = 2100;
  }

let quick_config = { default_config with cases = [ Kill_one; Quorum_loss ]; reps = 2 }

let case_name = function
  | Baseline -> "no faults"
  | Kill_one -> "kill x1"
  | Storm -> "storm k3+cut"
  | Quorum_loss -> "quorum loss"

(* The four cells of the recovery-time vs answer-quality grid:
   - [Kill_one]: one mid-run kill — the rollback families pay a recovery
     wave, replication a failover, the shrink backend one agreement.
   - [Storm]: staggered kills then a partition during the agreement they
     triggered (scenarios/shrink_storm.fail): the unsuspected membership
     is exactly a majority of the original epoch, so shrink must still
     decide and complete degraded.
   - [Quorum_loss]: six of the eleven epoch-0 members (nine ranks plus
     the two warm spares on hosts 9 and 10) are cut off, each isolated —
     no side of the fabric holds a majority of the superseded epoch, so
     the survivor agreement must refuse to decide (clean abort), never
     split-brain; backends without a give-up path wedge net-hung. *)
let scenario_of config = function
  | Baseline -> None
  | Kill_one ->
      Some
        (Fail_lang.Codegen.Scenario.source ~n_machines:config.n_machines
           [
             {
               Fail_lang.Codegen.Scenario.machine = 3;
               anchor = Fail_lang.Codegen.Scenario.After 30;
               kind = Fail_lang.Codegen.Scenario.Kill;
             };
           ])
  | Storm ->
      Some
        (Fail_lang.Paper_scenarios.shrink_storm ~n_machines:config.n_machines
           ~targets:[ 1; 5; 7 ] ~start:25 ~step:3 ~victim:2 ~lag:2)
  | Quorum_loss ->
      Some
        (Fail_lang.Codegen.Scenario.source ~n_machines:config.n_machines
           (List.mapi
              (fun i m ->
                {
                  Fail_lang.Codegen.Scenario.machine = m;
                  anchor = Fail_lang.Codegen.Scenario.After (if i = 0 then 30 else 1);
                  kind = Fail_lang.Codegen.Scenario.Partition;
                })
              [ 3; 4; 5; 6; 7; 8 ]))

type row = { family : string; case : case; agg : Harness.agg }

(* Every backend joins the grid; the shrink family runs with the
   configured warm-spare pool instead of its default of 0. *)
let families config =
  let base = Mpivcl.Config.default ~n_ranks:config.n_ranks in
  List.map
    (fun (module B : Failmpi.Backend.S) ->
      let protocol =
        match B.protocol ~replicas:config.degree with
        | Mpivcl.Config.Ulfm _ -> Mpivcl.Config.Ulfm { spares = config.spares }
        | p -> p
      in
      ( B.family_label ~replicas:config.degree,
        { base with Mpivcl.Config.protocol } ))
    (Failmpi.Backend.all ())

let label_of family case = Printf.sprintf "%s %s" (case_name case) family

let run ?jobs ?(config = default_config) () =
  List.concat_map
    (fun case ->
      let scenario = scenario_of config case in
      List.map
        (fun (family, cfg) ->
          Harness.cell
            ~tag:(family, case, label_of family case)
            ~reps:config.reps ~base_seed:config.base_seed
            (fun ~seed ->
              Harness.run_bt ~cfg ~klass:config.klass ~n_ranks:config.n_ranks
                ~n_machines:config.n_machines ~scenario ~seed ()))
        (families config))
    config.cases
  |> Harness.campaign ?jobs
  |> List.map (fun ((family, case, label), results) ->
         { family; case; agg = Harness.aggregate ~label results })

let aggs rows = List.map (fun r -> r.agg) rows

let render rows =
  let title = "Shrink-and-continue: recovery time vs answer quality, five backends" in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (title ^ "\n");
  Buffer.add_string buf (String.make (String.length title) '-' ^ "\n");
  Buffer.add_string buf
    (Printf.sprintf "%-32s %5s %8s %6s %5s %7s %6s %6s %6s %7s %5s\n" "configuration"
       "runs" "time(s)" "shrink" "surv" "promote" "adopt" "%degr" "%abrt" "%wedged"
       "chk");
  List.iter
    (fun r ->
      let a = r.agg in
      Buffer.add_string buf
        (Printf.sprintf "%-32s %5d %8s %6.1f %5s %7.1f %6.1f %6.0f %6.0f %7.0f %5s\n"
           a.Harness.label a.Harness.runs
           (match a.Harness.mean_time with
           | Some t -> Printf.sprintf "%.0f" t
           | None -> "-")
           (Harness.counter a "recoveries")
           (match a.Harness.mean_survivors with
           | Some s -> Printf.sprintf "%.1f" s
           | None -> "-")
           (Harness.counter a "spares_promoted")
           (Harness.counter a "ranks_adopted")
           a.Harness.pct_degraded a.Harness.pct_aborted
           (a.Harness.pct_non_terminating +. a.Harness.pct_buggy
          +. a.Harness.pct_net_hung)
           (if a.Harness.checksum_failures = 0 then "ok"
            else Printf.sprintf "%d BAD" a.Harness.checksum_failures)))
    rows;
  Buffer.contents buf

let paper_note =
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
   fault-free reference."
