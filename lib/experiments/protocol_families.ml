type config = {
  klass : Workload.Bt_model.klass;
  n_ranks : int;
  degree : int;
  n_machines : int;
  periods : int option list;
  reps : int;
  base_seed : int;
}

(* 9 ranks at degree 2 fit 22 machines (18 replicas + 4 spares); the
   rollback families run on the same cluster so every family sees the
   exact same FAIL scenario text. *)
let default_config =
  {
    klass = Workload.Bt_model.A;
    n_ranks = 9;
    degree = 2;
    n_machines = 22;
    periods = [ None; Some 80; Some 50 ];
    reps = 3;
    base_seed = 1300;
  }

let quick_config = { default_config with periods = [ None; Some 50 ]; reps = 2 }

type row = { family : string; agg : Harness.agg }

(* Every backend, not a hard-coded family list: a new backend joins the
   comparison by being listed in Backend.Builtin.all. *)
let families config =
  let base = Mpivcl.Config.default ~n_ranks:config.n_ranks in
  List.map
    (fun (module B : Failmpi.Backend.S) ->
      ( B.family_label ~replicas:config.degree,
        { base with Mpivcl.Config.protocol = B.protocol ~replicas:config.degree } ))
    (Failmpi.Backend.all ())

let label_of family = function
  | None -> Printf.sprintf "no faults %s" family
  | Some p -> Printf.sprintf "1/%ds %s" p family

let run ?jobs ?(config = default_config) () =
  List.concat_map
    (fun period ->
      let scenario =
        Option.map
          (fun p ->
            Fail_lang.Paper_scenarios.frequency ~n_machines:config.n_machines ~period:p)
          period
      in
      List.map
        (fun (family, cfg) ->
          Harness.cell
            ~tag:(family, label_of family period)
            ~reps:config.reps ~base_seed:config.base_seed
            (fun ~seed ->
              Harness.run_bt ~cfg ~klass:config.klass ~n_ranks:config.n_ranks
                ~n_machines:config.n_machines ~scenario ~seed ()))
        (families config))
    config.periods
  |> Harness.campaign ?jobs
  |> List.map (fun ((family, label), results) ->
         { family; agg = Harness.aggregate ~label results })

let aggs rows = List.map (fun r -> r.agg) rows

let render rows =
  let title =
    "Protocol families: rollback recovery (Vcl, V2) vs active replication"
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (title ^ "\n");
  Buffer.add_string buf (String.make (String.length title) '-' ^ "\n");
  Buffer.add_string buf
    (Printf.sprintf "%-26s %5s %9s %8s %7s %9s %9s %8s %7s %5s\n" "configuration" "runs"
       "time(s)" "faults" "rollbk" "failover" "respawn" "%nonterm" "%buggy" "chk");
  List.iter
    (fun r ->
      let a = r.agg in
      Buffer.add_string buf
        (Printf.sprintf "%-26s %5d %9s %8.1f %7.1f %9.1f %9.1f %8.0f %7.0f %5s\n"
           a.Harness.label a.Harness.runs
           (match a.Harness.mean_time with
           | Some t -> Printf.sprintf "%.0f" t
           | None -> "-")
           a.Harness.mean_faults
           (Harness.counter a "recoveries")
           (Harness.counter a "failovers")
           (Harness.counter a "respawns")
           a.Harness.pct_non_terminating a.Harness.pct_buggy
           (if a.Harness.checksum_failures = 0 then "ok"
            else Printf.sprintf "%d BAD" a.Harness.checksum_failures)))
    rows;
  Buffer.contents buf

let paper_note =
  "Expectation (paper §6 outlook): the rollback families pay a recovery\n\
   wave per fault (Vcl rolls every rank back, V2 replays the failed rank\n\
   from its logs), so completed-run time grows with fault frequency; the\n\
   replication family absorbs the same faults as zero-rollback failovers\n\
   (rollbk stays 0) at the cost of degree x the compute resources, and\n\
   only exhausts when all replicas of one rank die within the failover\n\
   window. All completed runs must agree on the checksums."
