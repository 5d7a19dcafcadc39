(* The command lines' input checks:

   - a table of argument vectors run through the built executables, each
     with its exit status and either the first line of stderr or lines
     that stdout must hold;
   - a qcheck property that drives [Cli.check] in-process with every
     numeric flag at -1, 0, 1, its bound and its bound + 1 (float flags
     also at nan and infinity): it never raises, every error names a
     flag that was set, and a flag set alone is refused exactly when its
     value is outside its documented range.  No simulation runs. *)

let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* The table *)

type expect =
  | Err of string  (** the first stderr line starts with this *)
  | Out of string list  (** stdout holds each of these lines *)

(* A scenario whose controller sits on machine 500, written for the
   table's one row that needs it and removed at exit. *)
let far_scenario =
  let path = Filename.temp_file "far" ".fail" in
  at_exit (fun () -> Sys.remove path);
  Out_channel.with_open_bin path (fun oc ->
      output_string oc
        "Daemon IDLE {\n  node 1:\n    onload -> continue, goto 1;\n}\nP1 : IDLE on machine 500;\n");
  path

let rows =
  let run = "failmpi_run" and explore = "failmpi_explore" and exps = "failmpi_experiments" in
  let missing exe flag =
    Err (Printf.sprintf "%s: %s parent directory /missing does not exist" exe flag)
  in
  [
    ( run,
      [ "--ranks"; "4"; "--protocol"; "replication"; "--replicas"; "2" ]
      @ [ "--scenario"; "../scenarios/replica_split.fail" ],
      1,
      Err "failmpi_run: scenario error: line 21, col 3: unbound variable START" );
    (run, [ "--ranks"; "5" ], 1, Err "failmpi_run: --ranks must be a positive square number (got 5)");
    ( explore,
      [ "--ranks"; "5"; "--budget"; "4" ],
      1,
      Err "failmpi_explore: --ranks must be a positive square number (got 5)" );
    ( explore,
      [ "--targets"; "99"; "--budget"; "3"; "--max-faults"; "1" ],
      1,
      Err "failmpi_explore: --targets must name compute hosts 0..12 (got 99)" );
    ( run,
      [ "--ranks"; "4"; "--ckpt-replicas"; "3" ],
      1,
      Err "failmpi_run: --ckpt-replicas must be 1 or 2 (got 3)" );
    ( explore,
      [ "--freeze=-5"; "--budget"; "4" ],
      1,
      Err "failmpi_explore: --freeze must be >= 0 (got -5)" );
    ( explore,
      [ "--buckets=-5"; "--budget"; "4" ],
      1,
      Err "failmpi_explore: --buckets must be >= 0 (got -5)" );
    ( exps,
      [ "nosuch"; "--quick" ],
      1,
      Err
        "failmpi_experiments: unknown experiment nosuch (available: all, table1, fig5, fig6, fig7, \
         fig9, fig11, ablations, families, netfault, topo, shrink, scale, ckptfault, delay)" );
    ( exps,
      [ "fig5"; "--quick"; "--jobs"; "0" ],
      1,
      Err "failmpi_experiments: --jobs must be >= 1 (got 0)" );
    (explore, [ "--budget"; "4"; "--json"; "/missing/report.json" ], 1, missing explore "--json");
    (explore, [ "--budget"; "4"; "--emit"; "/missing/witnesses" ], 1, missing explore "--emit");
    (explore, [ "--budget"; "4"; "--corpus"; "/missing/corpus" ], 1, missing explore "--corpus");
    (run, [ "--ranks"; "4"; "--trace-csv"; "/missing/trace.csv" ], 1, missing run "--trace-csv");
    (exps, [ "fig5"; "--quick"; "--csv"; "/missing/csv" ], 1, missing exps "--csv");
    (* A valid timeout that a healthy run outlasts says so in the verdict. *)
    ( run,
      [ "--ranks"; "4"; "--timeout"; "100" ],
      0,
      Out [ "outcome:          non-terminating (still running at --timeout 100 s)" ] );
    ( run,
      [ "--ranks"; "4"; "--class"; "A"; "--net-heal=-5" ],
      1,
      Err "failmpi_run: --net-heal must be finite and >= 0 (got -5)" );
    ( run,
      [ "--ranks"; "4"; "--class"; "A"; "--timeout=-1" ],
      1,
      Err "failmpi_run: --timeout must be finite and > 0 (got -1)" );
    ( explore,
      [ "--timeout=-1"; "--budget"; "4" ],
      1,
      Err "failmpi_explore: --timeout must be finite and > 0 (got -1)" );
    (* Hosts 98 and 99 do not exist at 9 ranks: the cut would separate nothing. *)
    ( run,
      [ "--ranks"; "9"; "--net-partition"; "98:99" ],
      1,
      Err "failmpi_run: --net-partition must name compute hosts 0..12 (got 98)" );
    ( explore,
      [ "--protocol"; "replication"; "--replicas"; "0"; "--budget"; "5" ],
      1,
      Err "failmpi_explore: --replicas must be >= 1 (got 0)" );
    ( explore,
      [ "--timeout"; "inf" ],
      1,
      Err "failmpi_explore: --timeout must be finite and > 0 (got inf)" );
    (* 9 ranks on vcl: 13 compute hosts, the coordinator and 5 service hosts. *)
    ( run,
      [ "--ranks"; "9"; "--scenario"; far_scenario ],
      1,
      Err "failmpi_run: --scenario must deploy on hosts 0..18 (got machine 500)" );
    ( explore,
      [ "--jobs"; "65"; "--budget"; "4" ],
      1,
      Err "failmpi_explore: --jobs must be within 1..64 (got 65)" );
    (* Syntax stays Cmdliner's: exit 124. *)
    (run, [ "--ranks"; "x" ], 124, Err "failmpi_run: option '--ranks'");
    (* A trace output records every event, local checkpoints included. *)
    ( run,
      [ "--ranks"; "4"; "--class"; "A"; "--trace-csv"; "/dev/stdout" ],
      0,
      Out
        [
          "outcome:          completed (887.0 s)";
          "checksums:        all 4 ranks correct";
          "31.272484,vdaemon-0,local-checkpoint,wave 1 (0 logged)";
        ] );
  ]

let read_lines path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> String.split_on_char '\n' (really_input_string ic (in_channel_length ic)))

let test_table () =
  List.iter
    (fun (exe, args, status, expect) ->
      let what = String.concat " " (exe :: args) in
      let out = Filename.temp_file "cli" ".out" and err = Filename.temp_file "cli" ".err" in
      let code =
        Sys.command
          (Filename.quote_command ~stdout:out ~stderr:err
             (Printf.sprintf "../bin/%s.exe" exe)
             args)
      in
      let out_lines = read_lines out and err_lines = read_lines err in
      Sys.remove out;
      Sys.remove err;
      check_int (what ^ ": exit status") status code;
      match expect with
      | Err prefix ->
          let first = List.hd err_lines in
          let n = min (String.length prefix) (String.length first) in
          check_str (what ^ ": first stderr line") prefix (String.sub first 0 n)
      | Out lines ->
          List.iter
            (fun l ->
              if not (List.mem l out_lines) then Alcotest.failf "%s: stdout lacks %S" what l)
            lines)
    rows

(* ------------------------------------------------------------------ *)
(* The property *)

(* 4 ranks of class A on vcl: compute hosts 0..7. *)
let base =
  {
    Cli.protocol = "vcl";
    replicas = 2;
    ranks = 4;
    klass = "A";
    seed = 1;
    timeout = 1500.0;
    fixed = false;
    seeded = false;
    topology = None;
    spares = 0;
    ckpt_servers = 3;
    ckpt_replicas = 1;
    net = None;
    scenario = None;
    params = [];
    targets = [];
  }

let net_of (t : Cli.t) =
  Option.value t.Cli.net ~default:Simnet.Net.Perturb.default_profile

let with_base (t : Cli.t) f =
  let p = net_of t in
  { t with Cli.net = Some { p with Simnet.Net.Perturb.base = f p.Simnet.Net.Perturb.base } }

(* A flag: its name, whether it takes a float, its bound, its documented
   range, and how a value reaches [Cli.check]: through the deployment
   or as one of the caller's own checks. *)
type flag = {
  name : string;
  float : bool;
  bound : float;
  valid : float -> bool;
  set : float -> [ `T of Cli.t -> Cli.t | `Also of (unit, string) result ];
}

let int_flag name bound valid set =
  let int f v = f (int_of_float v) in
  { name; float = false; bound; valid = int valid; set = int set }

let duration name set =
  { name; float = true; bound = 0.0; valid = (fun v -> Float.is_finite v && v >= 0.0); set }

let is_square n = n >= 1 && (let r = int_of_float (sqrt (float_of_int n)) in r * r = n)
let host v = v >= 0 && v <= 7

let flags =
  [
    int_flag "--ranks" 1.0 is_square (fun v -> `T (fun t -> { t with Cli.ranks = v }));
    int_flag "--replicas" 1.0 (fun v -> v >= 1) (fun v -> `T (fun t -> { t with Cli.replicas = v }));
    int_flag "--spares" 0.0 (fun v -> v = 0) (fun v -> `T (fun t -> { t with Cli.spares = v }));
    int_flag "--ckpt-servers" 1.0 (fun v -> v >= 1) (fun v ->
        `T (fun t -> { t with Cli.ckpt_servers = v }));
    int_flag "--ckpt-replicas" 2.0 (fun v -> v = 1 || v = 2) (fun v ->
        `T (fun t -> { t with Cli.ckpt_replicas = v }));
    int_flag "--seed" 0.0 (fun _ -> true) (fun v -> `T (fun t -> { t with Cli.seed = v }));
    int_flag "--targets" 7.0 host (fun v -> `T (fun t -> { t with Cli.targets = [ v ] }));
    int_flag "--net-partition" 7.0 host (fun v ->
        `T (fun t -> { t with Cli.net = Some { (net_of t) with partition = Some ([ v ], [ 0 ]) } }));
    (* fat-tree:4 has 16 hosts, enough for 8 compute hosts. *)
    int_flag "--topology" 4.0 (fun k -> k >= 4 && k mod 2 = 0) (fun k ->
        `T (fun t -> { t with Cli.topology = Some ("--topology", Simtopo.Topo.Fat_tree { k }) }));
    int_flag "--jobs" 1.0 (fun v -> v >= 1) (fun v -> `Also (Cli.jobs (Some v)));
    int_flag "--budget" 1.0 (fun v -> v >= 1) (fun v -> `Also (Cli.at_least "--budget" 1 v));
    int_flag "--max-faults" 1.0 (fun v -> v >= 1) (fun v -> `Also (Cli.at_least "--max-faults" 1 v));
    int_flag "--buckets" 0.0 (fun v -> v >= 0) (fun v -> `Also (Cli.delays "--buckets" [ 25; v ]));
    int_flag "--freeze" 0.0 (fun v -> v >= 0) (fun v -> `Also (Cli.delays "--freeze" [ v ]));
    {
      name = "--timeout";
      float = true;
      bound = 0.0;
      valid = (fun v -> Float.is_finite v && v > 0.0);
      set = (fun v -> `T (fun t -> { t with Cli.timeout = v }));
    };
    {
      name = "--net-loss";
      float = true;
      bound = 1.0;
      valid = (fun v -> v >= 0.0 && v <= 1.0);
      set = (fun v -> `T (fun t -> with_base t (fun b -> { b with loss = v })));
    };
    duration "--net-latency" (fun v -> `T (fun t -> with_base t (fun b -> { b with latency = v })));
    duration "--net-jitter" (fun v -> `T (fun t -> with_base t (fun b -> { b with jitter = v })));
    duration "--net-heal" (fun v ->
        `T (fun t -> { t with Cli.net = Some { (net_of t) with heal_at = Some v } }));
  ]

let values f =
  [ -1.0; 0.0; 1.0; f.bound; f.bound +. 1.0 ] @ if f.float then [ Float.nan; Float.infinity ] else []

let check_with settings =
  let t, also =
    List.fold_left
      (fun (t, also) (f, v) ->
        match f.set v with `T g -> (g t, also) | `Also r -> (t, also @ [ r ]))
      (base, []) settings
  in
  Cli.check t ~also

let mentions msg flag =
  let n = String.length flag in
  let rec at i = i + n <= String.length msg && (String.sub msg i n = flag || at (i + 1)) in
  at 0

let setting =
  QCheck.Gen.(
    let* f = oneofl flags in
    map (fun v -> (f, v)) (oneofl (values f)))

let print_settings settings =
  String.concat " " (List.map (fun (f, v) -> Printf.sprintf "%s=%g" f.name v) settings)

let prop_never_raises =
  QCheck.Test.make ~count:500 ~name:"check never raises and names a set flag"
    (QCheck.make ~print:print_settings QCheck.Gen.(list_size (int_range 1 4) setting))
    (fun settings ->
      match check_with settings with
      | exception e -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e)
      | Ok _ -> true
      | Error msg ->
          List.exists (fun (f, _) -> mentions msg f.name) settings
          || QCheck.Test.fail_reportf "%S names no flag that was set" msg)

let test_each_flag_alone () =
  List.iter
    (fun f ->
      List.iter
        (fun v ->
          let what = Printf.sprintf "%s %g" f.name v in
          match (check_with [ (f, v) ], f.valid v) with
          | Ok _, true -> ()
          | Error msg, false ->
              if not (mentions msg f.name) then Alcotest.failf "%s: %S does not name it" what msg
          | Ok _, false -> Alcotest.failf "%s: accepted" what
          | Error msg, true -> Alcotest.failf "%s: refused: %s" what msg)
        (values f))
    flags

let test_base_spec () =
  match Cli.check base ~also:[] with
  | Error msg -> Alcotest.failf "base refused: %s" msg
  | Ok (spec, _) ->
      check_int "compute hosts" 8 spec.Failmpi.Run.n_compute;
      check_int "ranks" 4 spec.Failmpi.Run.cfg.Mpivcl.Config.n_ranks

(* Every shipped scenario deploys inside the deployment its header (or,
   for a paper scenario, its comment in Paper_scenarios) names. *)
let test_scenarios_fit () =
  let deployment ?(protocol = "vcl") ?(replicas = 2) ?(spares = 0) ranks =
    { base with Cli.protocol; replicas; spares; ranks; klass = "B" }
  in
  let file name params d =
    match Cli.read_file ("../scenarios/" ^ name) with
    | Ok src -> (name, { d with Cli.scenario = Some src; params })
    | Error msg -> Alcotest.failf "%s: %s" name msg
  in
  let paper name d =
    (name, { d with Cli.scenario = Some (List.assoc name Fail_lang.Paper_scenarios.all) })
  in
  let nine = deployment 9 and pair = deployment ~protocol:"replication" 4 in
  let files =
    [
      file "cascade.fail" [ ("START", 20) ] nine;
      file "ckpt_sniper.fail"
        [ ("SERVER", 0); ("START", 32); ("RANK", 3); ("GAP", 6) ]
        { nine with Cli.ckpt_replicas = 2 };
      file "double_strike.fail"
        [ ("START", 25); ("GAP", 1); ("FIRST", 0); ("SECOND", 9); ("NTH", 10) ]
        nine;
      file "freeze_thaw.fail" [ ("PERIOD", 25) ] nine;
      file "partition_wave.fail"
        [
          ("START", 20); ("WAVE", 10); ("GAP", 5); ("HEAL", 8); ("VICTIM", 2); ("TARGET", 5);
          ("LOSS", 100); ("LAT", 2);
        ]
        nine;
      file "rack_blackout.fail"
        [ ("START", 30); ("SWITCH", 0); ("HEAL", 20) ]
        { pair with Cli.topology = Some ("--topology", Simtopo.Topo.Fat_tree { k = 4 }) };
      file "random_crash.fail" [ ("PERIOD", 30) ] nine;
      file "replica_split.fail" [ ("START", 20); ("GAP", 0); ("FIRST", 2); ("SECOND", 6) ] pair;
      file "shrink_storm.fail"
        [ ("START", 25); ("STEP", 3); ("LAG", 2); ("K1", 1); ("K2", 5); ("K3", 7); ("VICTIM", 2) ]
        (deployment ~protocol:"ulfm" ~spares:2 9);
      file "wave_sniper.fail" [ ("DELAY", 10) ] nine;
    ]
  and papers =
    List.map
      (fun name -> paper name (deployment 49))
      [ "fig5-frequency"; "fig7-simultaneous"; "fig8-synchronized"; "fig10-state-synchronized" ]
    @ List.map
        (fun name -> paper name (deployment ~protocol:"replication" 9))
        [ "replica-split"; "replica-split-staggered" ]
    @ List.map (fun name -> paper name nine) [ "double-strike"; "partition-wave"; "ckpt-sniper" ]
    @ [ paper "shrink-storm" (deployment ~protocol:"ulfm" 9); paper "rack-blackout" pair ]
  in
  let names cases = List.sort compare (List.map fst cases) in
  Alcotest.(check (list string))
    "every scenario file" (names files)
    (List.sort compare
       (List.filter (fun f -> Filename.check_suffix f ".fail") (Array.to_list (Sys.readdir "../scenarios"))));
  Alcotest.(check (list string))
    "every paper scenario" (names papers)
    (List.sort compare (List.map fst Fail_lang.Paper_scenarios.all));
  List.iter
    (fun (name, t) ->
      match Cli.check t ~also:[] with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "%s refused: %s" name msg)
    (files @ papers)

let () =
  Alcotest.run "cli"
    [
      ("table", [ Alcotest.test_case "argument vectors" `Quick test_table ]);
      ( "check",
        [
          Alcotest.test_case "base deployment" `Quick test_base_spec;
          Alcotest.test_case "each flag alone" `Quick test_each_flag_alone;
          Alcotest.test_case "shipped scenarios fit" `Quick test_scenarios_fit;
          QCheck_alcotest.to_alcotest prop_never_raises;
        ] );
    ]
